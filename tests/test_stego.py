"""Silence scanning and payload embedding: placement, transparency, recovery."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import RATE, build_corpus, ncc, speech_like
from test_analysis import _threads_end_with_the_call
from ultraband import kernels, stego, wavio
from ultraband import (
    BadArgument,
    EmptySignal,
    NoRoom,
    PcmClip,
    RateTooLow,
    SampleBuffer,
    SilenceMap,
    band_energy,
    demodulate,
    detect,
    embed,
    embed_file,
    find_silence,
    modulate,
    read_wav,
    to_float,
    to_pcm,
    write_wav,
)
from ultraband.analysis import true_runs


@pytest.fixture(scope="module")
def payload(default_config):
    return modulate(speech_like(duration_s=1.5, f0=140.0, seed=50), default_config)


# --- find_silence ---


def test_all_silence_is_one_region():
    host = SampleBuffer(np.zeros(int(3 * RATE)), RATE)
    silence = find_silence(host)
    assert silence.regions == ((0, int(3 * RATE)),)


def test_loud_tone_has_no_regions():
    t = np.arange(int(2 * RATE)) / RATE
    host = SampleBuffer(0.9 * np.sin(2.0 * np.pi * 440.0 * t), RATE)
    assert find_silence(host).regions == ()


def test_constructed_gap_found_within_one_frame():
    speech_a = speech_like(duration_s=1.0, seed=41).samples
    speech_b = speech_like(duration_s=1.0, seed=42).samples
    host = SampleBuffer(
        np.concatenate([speech_a, np.zeros(int(2 * RATE)), speech_b]), RATE
    )
    silence = find_silence(host)
    assert len(silence.regions) == 1
    start, end = silence.regions[0]
    frame = int(0.02 * RATE)
    assert abs(start - int(1 * RATE)) <= frame
    assert abs(end - int(3 * RATE)) <= frame


def test_trailing_partial_block_counts():
    n = int(1.01 * RATE)  # not a whole number of 20 ms frames
    host = SampleBuffer(np.zeros(n), RATE)
    assert find_silence(host).regions == ((0, n),)


def test_short_regions_dropped():
    host = np.ones(int(2 * RATE)) * 0.5
    host[: int(0.1 * RATE)] = 0.0  # 100 ms < 500 ms minimum
    assert find_silence(SampleBuffer(host, RATE)).regions == ()


def test_find_silence_validation():
    with pytest.raises(EmptySignal):
        find_silence(SampleBuffer(np.zeros(0), RATE))
    host = SampleBuffer(np.zeros(1000), RATE)
    with pytest.raises(ValueError):
        find_silence(host, rms_threshold=0.0)
    with pytest.raises(ValueError):
        find_silence(host, frame_ms=-1.0)


@pytest.mark.parametrize("name", ["rms_threshold", "frame_ms", "min_region_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_find_silence_rejects_non_finite_setting(name, value):
    # frame_ms inf raised OverflowError and nan a bare ValueError; the
    # others passed and left no silent region
    host = SampleBuffer(np.zeros(1000), RATE)
    with pytest.raises(BadArgument, match=f"^{name} {value} must be positive and finite$"):
        find_silence(host, **{name: value})


def test_frame_longer_than_host_is_one_block():
    # 1e300 ms used to fail with numpy's "Maximum allowed dimension exceeded"
    quiet = SampleBuffer(np.full(1000, 0.001), RATE)
    for frame_ms in (1000 / RATE * 1000, 1e3, 1e300):
        assert find_silence(quiet, frame_ms=frame_ms, min_region_ms=1.0).regions == ((0, 1000),)
    loud = SampleBuffer(np.full(1000, 0.5), RATE)
    assert find_silence(loud, frame_ms=1e300, min_region_ms=1.0).regions == ()


def _find_silence_loop(host, rms_threshold=0.01, frame_ms=20.0, min_region_ms=500.0):
    """Reference: the per-block loop find_silence replaced, kept to pin its regions."""
    rate = host.sample_rate_hz
    frame_len = max(1, int(round(frame_ms * rate / 1000.0)))
    n = len(host)
    regions = []
    run_start = None
    for start in range(0, n, frame_len):
        block = host.samples[start : start + frame_len]
        quiet = float(np.sqrt(np.mean(block**2))) < rms_threshold
        if quiet and run_start is None:
            run_start = start
        elif not quiet and run_start is not None:
            regions.append((run_start, start))
            run_start = None
    if run_start is not None:
        regions.append((run_start, n))
    min_samples = min_region_ms * rate / 1000.0
    return tuple(r for r in regions if r[1] - r[0] >= min_samples)


def _random_host(rng):
    """Segments of noise or constant level around the 0.01 threshold, so
    blocks land on both sides of it and runs start and end mid-signal."""
    rate = float(rng.choice([8000.0, 16000.0, 22050.0, 44100.0, 48000.0]))
    parts = []
    for _ in range(int(rng.integers(1, 12))):
        length = int(rng.integers(1, 4000))
        level = float(rng.choice([0.0, 0.005, 0.0099, 0.01, 0.0101, 0.02, 0.5]))
        if rng.random() < 0.5:
            parts.append(level * rng.standard_normal(length))
        else:
            parts.append(np.full(length, level) * rng.choice([-1.0, 1.0], length))
    return SampleBuffer(np.clip(np.concatenate(parts), -1.0, 1.0), rate)


def test_find_silence_matches_block_loop():
    rng = np.random.default_rng(2024)
    cases = [(sig, 20.0, 500.0) for sig in build_corpus().values()]
    cases.append((speech_like(duration_s=3.0, seed=26, pauses=[(0.5, 1.7), (2.0, 2.9)]), 20.0, 500.0))
    for _ in range(250):
        cases.append(
            (_random_host(rng), float(rng.uniform(0.05, 30.0)), float(rng.uniform(0.01, 100.0)))
        )
    for host, frame_ms, min_region_ms in cases:
        expected = _find_silence_loop(host, 0.01, frame_ms, min_region_ms)
        got = find_silence(host, 0.01, frame_ms, min_region_ms).regions
        assert got == expected
        assert all(type(v) is int for span in got for v in span)


def _find_silence_reshape(host, rms_threshold=0.01, frame_ms=20.0, min_region_ms=500.0):
    """Reference: the whole-host reshape find_silence replaced, kept to pin its
    mean squares: full blocks as rows of one mean, then the partial block."""
    rate, n = host.sample_rate_hz, len(host)
    frame_len = max(1, int(round(min(frame_ms * rate / 1000.0, n))))
    power = host.samples**2
    full = n // frame_len
    mean_sq = np.mean(power[: full * frame_len].reshape(full, frame_len), axis=1)
    if n % frame_len:
        mean_sq = np.append(mean_sq, np.mean(power[full * frame_len :]))
    starts, ends = true_runs(np.sqrt(mean_sq) < rms_threshold)
    regions = zip((starts * frame_len).tolist(), np.minimum(ends * frame_len, n).tolist())
    return tuple(r for r in regions if r[1] - r[0] >= min_region_ms * rate / 1000.0)


def _threshold_host(n, seed):
    """Runs of noise and of +/- constants at and around the 0.01 threshold,
    where a block's mean square decides by its last bits."""
    rng = np.random.default_rng(seed)
    parts, size = [], 0
    while size < n:
        length = int(rng.integers(100, 5000))
        level = float(rng.choice([0.0, 0.0099, 0.01, 0.01, 0.0101, 0.3]))
        if rng.random() < 0.3:
            parts.append(level * rng.standard_normal(length))
        else:
            parts.append(level * rng.choice([-1.0, 1.0], length))
        size += length
    return np.concatenate(parts)[:n]


@pytest.mark.parametrize("cpus", [1, 2])
def test_find_silence_equals_the_reshape_over_blocks(monkeypatch, cpus):
    # blocks of 280 frames of 20 ms at 48 kHz: a host of two blocks or more
    # has the worker on two CPUs, and the longest host spans more than three
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    frame_len, rate = 960, 48000.0
    block = 280 * frame_len
    monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", block)
    samples = _threshold_host(3 * block + 2 * frame_len, seed=cpus)
    lengths = {1, frame_len - 1, frame_len, frame_len + 1}
    for edge in (block, 2 * block, 3 * block):  # where blocks end
        lengths |= {edge - frame_len, edge - 1, edge, edge + 1, edge + frame_len + 1}
    for n in sorted(lengths):
        host = SampleBuffer(samples[:n], rate)
        pcm = to_pcm(host)  # channel 0 of a 16-bit host reads as its to_float
        for frame_ms, min_region_ms in ((20.0, 1e-3), (20.0, 500.0), (7.3, 1e-3)):
            expected = _find_silence_reshape(host, 0.01, frame_ms, min_region_ms)
            assert find_silence(host, 0.01, frame_ms, min_region_ms).regions == expected, n
            assert (find_silence(pcm, 0.01, frame_ms, min_region_ms).regions
                    == _find_silence_reshape(to_float(pcm), 0.01, frame_ms, min_region_ms)), n
    # regions in the last block survive the reuse of the earlier blocks' rows
    regions = find_silence(SampleBuffer(samples, rate), 0.01, 20.0, 1e-3).regions
    assert len(regions) > 50 and regions[-1][0] > 2 * block


def test_find_silence_threads_end_with_the_call(monkeypatch):
    # 6 s at 48 kHz is 300 frames, three blocks of 136: the worker's rule holds
    host = SampleBuffer(_threshold_host(6 * 48000, seed=3), 48000.0)
    _threads_end_with_the_call(
        monkeypatch, lambda: np.array(find_silence(host, min_region_ms=1e-3).regions), np, "mean")


def test_longest_prefers_earliest_on_tie():
    silence = SilenceMap(regions=((100, 200), (300, 400)))
    assert silence.longest() == (100, 200)


def test_longest_empty_raises():
    silence = SilenceMap(regions=())
    with pytest.raises(NoRoom):
        silence.longest()


# --- embed ---


def test_embed_on_silent_host_is_payload_verbatim(payload):
    host = SampleBuffer(np.zeros(int(3 * RATE)), RATE)
    out = embed(host, payload, find_silence(host), gain=1.0)
    assert np.array_equal(out.samples[: len(payload)], payload.samples)
    assert np.max(np.abs(out.samples[len(payload) :])) == 0.0


def test_embed_locality_bit_exact(payload):
    host = speech_like(duration_s=4.0, seed=21, pauses=[(1.0, 3.2)])
    silence = find_silence(host)
    start, _ = silence.longest()
    out = embed(host, payload, silence, gain=0.5)
    span = slice(start, start + len(payload))
    before = np.delete(out.samples, np.arange(span.start, span.stop))
    reference = np.delete(host.samples, np.arange(span.start, span.stop))
    assert np.array_equal(before, reference)


def test_embed_transparent_in_audible_band(payload):
    host = speech_like(duration_s=4.0, seed=22, pauses=[(1.0, 3.2)])
    out = embed(host, payload, find_silence(host), gain=0.5)
    e_host = band_energy(host, 0.0, 15500.0)
    e_out = band_energy(out, 0.0, 15500.0)
    assert abs(10.0 * np.log10(e_out / e_host)) <= 0.1


def test_embedded_payload_extractable(payload):
    host = SampleBuffer(np.zeros(int(4 * RATE)), RATE)
    silence = find_silence(host)
    start, _ = silence.longest()
    out = embed(host, payload, silence, gain=0.25)
    # silence frames are 20 ms = 320 whole carrier cycles, so the slice
    # is already carrier-aligned and needs no phase search
    piece = SampleBuffer(out.samples[start : start + len(payload)], RATE)
    recovered = demodulate(piece)
    reference = demodulate(payload)
    assert ncc(recovered.samples, reference.samples) >= 0.9


def test_embedded_output_is_detectable(payload):
    host = speech_like(duration_s=4.0, seed=23, pauses=[(1.0, 3.2)])
    out = embed(host, payload, find_silence(host), gain=0.5)
    assert detect(out).flagged


def test_embed_rejects_low_rate_host(payload):
    host = SampleBuffer(np.zeros(32000), 16000.0)
    silence = find_silence(host)
    with pytest.raises(RateTooLow):
        embed(host, payload, silence)


def test_embed_no_room(payload):
    # a 600 ms gap passes the region filter but cannot hold 1.5 s
    host = speech_like(duration_s=2.0, seed=24, pauses=[(0.7, 1.3)])
    silence = find_silence(host)
    assert silence.regions  # the gap was found
    with pytest.raises(NoRoom):
        embed(host, payload, silence)


def test_embed_checks_room_before_it_resamples():
    # 100 s at 480 Hz is 4.8 M samples (37 MiB) at 48 kHz: no room, so no resampling
    host = SampleBuffer(np.zeros(48000), RATE)
    slow = SampleBuffer(np.random.default_rng(3).uniform(-0.5, 0.5, 48000), 480.0)
    silence = find_silence(host)
    tracemalloc.start()
    try:
        with pytest.raises(NoRoom):
            embed(host, slow, silence)
        assert tracemalloc.get_traced_memory()[1] <= 8 << 20
    finally:
        tracemalloc.stop()


def test_embed_refuses_for_room_before_it_measures_the_payload(tmp_path, payload, monkeypatch):
    # NoRoom needs only the two lengths and the silence map, not the payload's band
    measured = []
    monkeypatch.setattr(stego, "recovered_bandwidth", lambda *args: measured.append(args))
    host = speech_like(duration_s=2.0, seed=24, pauses=[(0.7, 1.3)])
    for silence in (find_silence(host), SilenceMap(regions=())):
        with pytest.raises(NoRoom):
            embed(host, payload, silence)
    write_wav(tmp_path / "host.wav", to_pcm(host))
    write_wav(tmp_path / "payload.wav", to_pcm(payload))
    with pytest.raises(NoRoom):
        embed_file(tmp_path / "host.wav", tmp_path / "payload.wav", tmp_path / "out.wav")
    assert measured == [] and not (tmp_path / "out.wav").exists()


def test_embed_validation(payload):
    host = SampleBuffer(np.zeros(int(3 * RATE)), RATE)
    silence = find_silence(host)
    with pytest.raises(ValueError):
        embed(host, payload, silence, gain=0.0)
    with pytest.raises(ValueError):
        embed(host, payload, silence, gain=1.5)
    with pytest.raises(EmptySignal):
        embed(SampleBuffer(np.zeros(0), RATE), payload, silence)


def test_embed_clamps_to_unit_range(payload):
    host = SampleBuffer(np.full(int(3 * RATE), 0.009), RATE)  # quiet but nonzero
    out = embed(host, payload, find_silence(host), gain=1.0)
    assert np.max(np.abs(out.samples)) <= 1.0


# --- embed_file ---


def test_embed_file_report(tmp_path, payload):
    host = speech_like(duration_s=4.0, seed=25, pauses=[(1.0, 3.2)])
    host_path, payload_path, out_path = (
        tmp_path / "host.wav",
        tmp_path / "payload.wav",
        tmp_path / "mixed.wav",
    )
    write_wav(host_path, to_pcm(host))
    write_wav(payload_path, to_pcm(payload))
    report = embed_file(host_path, payload_path, out_path, gain=0.5)

    assert report["host_rate_hz"] == 48000.0
    assert report["gain"] == 0.5
    assert len(report["silent_regions"]) >= 1
    ins = report["insertion"]
    assert ins["end_sample"] - ins["start_sample"] == len(payload)
    assert out_path.exists()

    mixed = to_float(read_wav(out_path))
    assert detect(mixed).flagged


@pytest.mark.parametrize("channels", [1, 2])
def test_embed_file_writes_the_host_back_as_read(tmp_path, payload, channels):
    # Above half scale a float round trip (read 1/32768, write 32767) moves a
    # sample one count toward zero; only the insertion span may change.
    speech = speech_like(duration_s=3.0, seed=28, pauses=[(0.6, 2.7)])
    lane = to_pcm(SampleBuffer(np.clip(3.0 * speech.samples, -1.0, 1.0), RATE)).samples
    assert np.count_nonzero(np.abs(lane) > 16384) > 10000
    loud = np.random.default_rng(28).integers(-32768, 32768, lane.size)  # never silent
    host = PcmClip(np.stack([lane, loud][:channels], axis=1).ravel(), int(RATE), channels)
    write_wav(tmp_path / "host.wav", host)
    write_wav(tmp_path / "payload.wav", to_pcm(payload))
    report = embed_file(tmp_path / "host.wav", tmp_path / "payload.wav", tmp_path / "out.wav")

    out = read_wav(tmp_path / "out.wav")
    assert (out.channels, out.sample_rate_hz, len(out)) == (1, host.sample_rate_hz, lane.size)
    start, end = report["insertion"]["start_sample"], report["insertion"]["end_sample"]
    assert np.array_equal(out.samples[:start], lane[:start])
    assert np.array_equal(out.samples[end:], lane[end:])
    floats = to_float(host)
    mixed = embed(floats, to_float(read_wav(tmp_path / "payload.wav")), find_silence(floats))
    assert np.array_equal(out.samples[start:end], to_pcm(mixed).samples[start:end])


def test_embed_file_resamples_payload_once(tmp_path, payload, monkeypatch):
    host = speech_like(duration_s=4.0, seed=27, pauses=[(0.5, 3.5)], rate=44100.0)
    write_wav(tmp_path / "host.wav", to_pcm(host))
    write_wav(tmp_path / "payload.wav", to_pcm(payload))
    calls = []

    def counting_resample(signal, new_rate_hz):
        calls.append(new_rate_hz)
        return resample(signal, new_rate_hz)

    resample = stego.resample
    monkeypatch.setattr(stego, "resample", counting_resample)
    report = embed_file(tmp_path / "host.wav", tmp_path / "payload.wav", tmp_path / "out.wav")
    assert calls == [44100.0]
    ins = report["insertion"]
    assert ins["end_sample"] - ins["start_sample"] == len(resample(payload, 44100.0))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def minute_files(tmp_path):
    """A 60 s host of loud noise with 3 s of silence, the same noise with no
    silence, and a 0.5 s 18 kHz payload at 44.1 kHz: (host, busy, payload)."""
    rate = int(RATE)
    loud = np.random.default_rng(36).integers(-9000, 9000, 60 * rate).astype(np.int16)
    host = loud.copy()
    host[10 * rate : 13 * rate] = 0
    t = np.arange(22050) / 44100.0
    tone = np.round(9000.0 * np.sin(2 * np.pi * 18000.0 * t)).astype(np.int16)
    paths = tmp_path / "host.wav", tmp_path / "busy.wav", tmp_path / "payload.wav"
    for path, clip in zip(paths, (PcmClip(host, rate), PcmClip(loud, rate), PcmClip(tone, 44100))):
        write_wav(path, clip)
    return paths


def test_embed_file_that_cannot_fit_reads_spans_only(tmp_path, minute_files):
    # A 60 s payload as float64 is 23 MB: the refusal must not read it, or the
    # host, whole.
    host, busy, _ = minute_files
    out = tmp_path / "out.wav"

    def refused():
        with pytest.raises(NoRoom, match="payload needs 2880000"):
            embed_file(host, busy, out)

    assert _traced_peak(refused) <= 8 << 20
    assert not out.exists()


def test_embed_file_holds_one_copy_of_the_host(tmp_path, minute_files):
    # The host's int16 lane once, the output spliced into it in place, 10%
    # over; a host of more than one channel also reads through the reader's
    # 2 MiB scratch, allowed twice. Each of the 24000 resampled payload
    # samples is allowed 64 bytes (the payload's floats, its resampled and
    # mixed spans, the host's span). The 2- and 8-channel hosts carry the
    # mono host in channel 0, so each writes the mono host's output.
    host, _, payload = minute_files
    mono = read_wav(host).samples
    lane_bytes, scratch_bytes = mono.nbytes, 2 * wavio._LANE_SCRATCH
    written = {}
    for channels in (1, 2, 8):
        if channels > 1:
            frames = np.empty((mono.size, channels), dtype=np.int16)
            frames[:, 0], frames[:, 1:] = mono, mono[::-1, None]
            host = tmp_path / f"host{channels}.wav"
            write_wav(host, PcmClip(frames.reshape(-1), int(RATE), channels))
            del frames
        peak = _traced_peak(lambda: embed_file(host, payload, tmp_path / "out.wav"))
        bound = 1.1 * lane_bytes + (2 * scratch_bytes if channels > 1 else 0) + 64 * 24000
        assert peak <= bound, (channels, peak / lane_bytes)
        written[channels] = (tmp_path / "out.wav").read_bytes()
    assert written[2] == written[8] == written[1]
