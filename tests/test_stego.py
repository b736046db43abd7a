"""Silence scanning and payload embedding: placement, transparency, recovery."""

import numpy as np
import pytest

from conftest import RATE, build_corpus, ncc, speech_like
from ultraband import stego
from ultraband import (
    EmptySignal,
    NoRoom,
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
