"""Spectral measurements: STFT, band energy, metrics, detector, rendering."""

import math
import struct
import sys
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import FULLBAND_NAME, RATE, speech_like, tone
from ultraband import (
    BadArgument,
    BadBand,
    EmptySignal,
    IoFailure,
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    SignalTooShort,
    apply_filter,
    band_energy,
    design_lowpass,
    detect,
    measure,
    modulate,
    open_wav,
    read_wav,
    render_spectrogram,
    stft,
    to_float,
    write_wav,
)
from ultraband import analysis, kernels
from ultraband.analysis import (FRAME_MS, WELCH_SEGMENT, _band_mask, _longest_run_ms, _spectrum,
                                _weighted_power)
from ultraband.demodulator import recovered_bandwidth
from ultraband.kernels import _FFT_POINTS, next_fast_len

# --- stft ---


@pytest.mark.parametrize(
    "n,frame,hop",
    [(96000, 2048, 1024), (96000, 2048, 2048), (5000, 16, 7), (2400, 2400, 100)],
)
def test_frame_count_formula(n, frame, hop):
    spec = stft(SampleBuffer(np.zeros(n), RATE), frame, hop)
    assert spec.magnitudes_db.shape[0] == (n - frame) // hop + 1
    assert spec.magnitudes_db.shape[1] == frame // 2 + 1


def test_full_scale_tone_lands_at_zero_db():
    # frame of 2400 samples at 48 kHz puts 1 kHz exactly on a bin
    spec = stft(tone(1000.0, amp=1.0), 2400, 1200)
    assert spec.magnitudes_db.max() == pytest.approx(0.0, abs=0.01)
    peak_freqs = spec.bin_freqs[np.argmax(spec.magnitudes_db, axis=1)]
    assert np.all(peak_freqs == 1000.0)


def test_silence_sits_on_the_floor():
    spec = stft(SampleBuffer(np.zeros(8192), RATE), 1024, 512)
    assert np.all(spec.magnitudes_db == -120.0)


def test_frame_times_are_centers():
    spec = stft(SampleBuffer(np.zeros(8192), RATE), 1024, 512)
    assert spec.frame_times[0] == pytest.approx(512.0 / RATE)
    assert spec.frame_times[1] - spec.frame_times[0] == pytest.approx(512.0 / RATE)


def test_stft_validation():
    sig = SampleBuffer(np.zeros(1000), RATE)
    with pytest.raises(ValueError):
        stft(sig, 8, 4)  # frame too small
    with pytest.raises(ValueError):
        stft(sig, 64, 0)  # hop must be positive
    with pytest.raises(ValueError):
        stft(sig, 64, 65)  # hop beyond frame
    with pytest.raises(SignalTooShort):
        stft(SampleBuffer(np.zeros(63), RATE), 64, 32)


def test_modulated_fixture_confined_to_high_band(modulated_corpus):
    spec = stft(modulated_corpus[FULLBAND_NAME], 2048, 1024)
    peak_freqs = spec.bin_freqs[np.argmax(spec.magnitudes_db, axis=1)]
    assert peak_freqs.min() >= 16000.0
    assert peak_freqs.max() <= 22000.0


# --- band_energy ---


def test_tone_energy_concentrated():
    x = tone(1000.0)
    total = band_energy(x, 0.0, RATE / 2.0)
    assert band_energy(x, 500.0, 1500.0) >= 0.99 * total
    assert band_energy(x, 16000.0, 22000.0) <= 0.001 * total


def test_full_band_equals_time_domain_energy():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(48001)
    sig = SampleBuffer(x, RATE)
    assert band_energy(sig, 0.0, RATE / 2.0) == pytest.approx(
        float(np.dot(x, x)), rel=1e-9
    )


def test_partition_sums_to_total():
    rng = np.random.default_rng(32)
    sig = SampleBuffer(rng.standard_normal(9600), RATE)
    total = band_energy(sig, 0.0, RATE / 2.0)
    cuts = [0.0, 137.5, 3000.0, 15999.9, 24000.0]
    parts = sum(band_energy(sig, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    assert parts == pytest.approx(total, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(1.0, 23999.0, allow_nan=False), min_size=1, max_size=4, unique=True
    ),
    st.integers(0, 2**31 - 1),
    # one transform, and two or four segments with a short last one
    st.sampled_from([4096, 2**17 + 1, 3 * 2**17 + 17]),
)
def test_partition_property(cut_points, seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    sig = SampleBuffer(x, RATE)
    cuts = [0.0] + sorted(cut_points) + [RATE / 2.0]
    total = band_energy(sig, 0.0, RATE / 2.0)
    assert total == pytest.approx(float(np.dot(x, x)), rel=1e-9)
    parts = sum(band_energy(sig, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    assert parts == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4801, 48017, 2**17])
def test_spectrum_up_to_2_17_is_one_padded_transform(n):
    x = np.random.default_rng(n).standard_normal(n)
    freqs, energy = _spectrum(SampleBuffer(x, RATE))
    assert np.array_equal(energy, _weighted_power(x, next_fast_len(n)))
    assert np.array_equal(freqs, np.fft.rfftfreq(next_fast_len(n), d=1.0 / RATE))


@pytest.mark.parametrize("segments", [1, 2, 3, 4, 5])
def test_spectrum_on_two_cpus_equals_one_segment_at_a_time(monkeypatch, segments):
    # 2**17 * k - 1 ends on a short segment, which is padded like the rest
    for n in (2**17 * segments - 1, 2**17 * segments, 2**17 * segments + 1):
        sig = SampleBuffer(np.random.default_rng(n).standard_normal(n), RATE)
        n_fft = min(2**17, next_fast_len(n))
        serial = sum(_weighted_power(sig._read(s, s + n_fft), n_fft) for s in range(0, n, n_fft))
        for cpus in (1, 2):
            monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
            assert np.array_equal(_spectrum(sig)[1], serial), (n, cpus)


def _band_energy_exact_length(signal: SampleBuffer, lo_hz: float, hi_hz: float) -> float:
    """``band_energy`` before the shared spectrum: one transform at the
    signal's own length."""
    freqs = np.fft.rfftfreq(len(signal), d=1.0 / signal.sample_rate_hz)
    energy = _weighted_power(signal.samples)
    return float(energy[_band_mask(freqs, lo_hz, hi_hz, signal.sample_rate_hz / 2.0)].sum())


def test_band_energy_stays_near_exact_length(corpus, modulated_corpus):
    # The padded grid samples the same transform more finely, so only the
    # slivers at the band edges move. Worst seen: 2.5e-4 of the total
    # (two_tone, 300-3400 Hz, 77777 samples). Shorter clips have wider bins
    # and move more: about 1.5e-3 of the total per Hz of bin width.
    for name, signal in [*corpus.items(), *modulated_corpus.items()]:
        for n in (95999, 77777, 48017):  # 48017 is prime
            cut = SampleBuffer(signal.samples[:n], RATE)
            total = float(np.dot(cut.samples, cut.samples))
            for band in ((0.0, 15500.0), (16000.0, 22000.0), (300.0, 3400.0)):
                moved = abs(band_energy(cut, *band) - _band_energy_exact_length(cut, *band))
                assert moved <= 5e-4 * total, (name, n, band, moved / total)


def _assert_flat_peaks(measure_it):
    """``measure_it`` of 60 s and of 240 s of noise at 48 kHz peak under 8 MiB
    (tracemalloc), within 1 MiB of each other."""
    x = np.random.default_rng(240).standard_normal(240 * 48000)
    peaks = []
    for seconds in (60, 240):
        sig = SampleBuffer._adopt(x[: seconds * 48000], 48000.0)
        tracemalloc.start()
        try:
            measure_it(sig)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
    assert max(peaks) < 8 << 20, peaks


def test_spectrum_memory_is_flat_in_signal_length():
    # One transform of the whole signal peaked at 439.5 MiB at 10 min; the
    # segments hold about 2 MiB at any length.
    for measure_it in (recovered_bandwidth, lambda sig: band_energy(sig, 300.0, 3400.0)):
        _assert_flat_peaks(measure_it)


@pytest.mark.parametrize("n, n_fft", [(4801, 4801), (4801, 4860), (4801, 4861), (70766, 72000)])
def test_weighted_power_padded_keeps_parseval(n, n_fft):
    x = np.random.default_rng(n_fft).standard_normal(n)
    energy = _weighted_power(x, n_fft)
    assert energy.size == n_fft // 2 + 1
    assert energy.sum() == pytest.approx(float(np.dot(x, x)), rel=1e-9)


def test_band_energy_validation():
    sig = SampleBuffer(np.zeros(100), RATE)
    with pytest.raises(EmptySignal):
        band_energy(SampleBuffer(np.zeros(0), RATE), 0.0, 1000.0)
    with pytest.raises(BadBand):
        band_energy(sig, -1.0, 1000.0)
    with pytest.raises(BadBand):
        band_energy(sig, 2000.0, 1000.0)
    with pytest.raises(BadBand):
        band_energy(sig, 0.0, 25000.0)


# --- measure ---


def test_measure_raw_speech_is_all_baseband(default_config):
    quiet = speech_like(seed=8, noise_level=0.05)
    metrics = measure(quiet, default_config)
    assert -0.5 <= metrics.leakage_below_carrier_db <= 0.0
    assert metrics.occupancy_hi_hz < 8000.0
    assert metrics.sideband_suppression_db is None


def test_measure_modulated_tone_reports_suppression(default_config):
    from ultraband import modulate

    metrics = measure(modulate(tone(1000.0), default_config), default_config)
    assert metrics.sideband_suppression_db is not None
    assert metrics.sideband_suppression_db <= -40.0


def test_measure_modulated_speech(modulated_corpus, default_config):
    metrics = measure(modulated_corpus["speech_low"], default_config)
    assert metrics.leakage_below_carrier_db <= -40.0
    assert 15800.0 <= metrics.occupancy_lo_hz
    assert metrics.occupancy_hi_hz <= 22200.0
    assert metrics.sideband_suppression_db is None  # no dominant line in speech


@pytest.mark.parametrize("n", [4000, 8192, 96001])
def test_measure_inband_energy_is_the_signal_energy(n):
    # Welch segments are rescaled so the bins add up to the measured
    # samples' energy, also for a clip shorter than one segment.
    config = ModulationConfig(tukey_alpha=0.0)
    x = tone(17000.0, duration_s=n / RATE)
    metrics = measure(x, config)
    assert metrics.inband_energy_db == pytest.approx(
        10.0 * np.log10(np.dot(x.samples, x.samples)), abs=0.01
    )
    assert metrics.leakage_below_carrier_db <= -60.0


def test_measure_leakage_does_not_depend_on_clip_length(default_config):
    # A whole-core periodogram read -52 to -78 dB across these lengths: its
    # rectangular truncation, not the signal. Welch segments read the signal.
    source = speech_like(duration_s=480017 / RATE, seed=21)
    readings = [
        measure(
            modulate(SampleBuffer(source.samples[:n], RATE), default_config), default_config
        ).leakage_below_carrier_db
        for n in (96000, 96001, 480000, 480017)
    ]
    assert max(readings) <= -40.0
    assert max(readings) - min(readings) <= 1.0, readings


def test_measure_empty(default_config):
    with pytest.raises(EmptySignal):
        measure(SampleBuffer(np.zeros(0), RATE), default_config)


@pytest.mark.parametrize("rate", [22050.0, 32000.0])
def test_measure_rejects_a_band_above_nyquist(rate, default_config):
    # 16-22 kHz fits under neither Nyquist; measure used to report on it
    # (at 22050 Hz the only "in-band" bin was the Nyquist bin)
    with pytest.raises(BadBand, match="does not fit under Nyquist"):
        measure(speech_like(seed=9, rate=rate), default_config)


@pytest.mark.parametrize(
    "signal,config",
    [
        # no energy at all
        (SampleBuffer(np.zeros(4800), RATE), ModulationConfig()),
        # no bin lies above carrier + 50 Hz inside the 40 Hz band
        (tone(16020.0), ModulationConfig(cutoff_hz=40.0)),
        # the image of a 3 kHz line about a 1 kHz carrier falls below 0 Hz
        (tone(3000.0), ModulationConfig(carrier_hz=1000.0)),
        # a 301-sample core has bins 159 Hz apart; none is within 50 Hz of
        # the image of a line on bin 101
        (tone(101 * RATE / 301, duration_s=301 / RATE), ModulationConfig(tukey_alpha=0.0)),
    ],
    ids=["silence", "no-bin-above-carrier", "image-below-zero", "no-bin-near-image"],
)
def test_measure_without_a_measurable_tone_pair(signal, config):
    assert measure(signal, config).sideband_suppression_db is None


def _span_energy(x: np.ndarray) -> float:
    """sum(x**2) as ``measure`` scales by it: one sum per ``_BLOCK_SAMPLES``
    span, the spans added in order."""
    span, total = kernels._BLOCK_SAMPLES, 0.0
    for i in range(0, x.size, span):  # one addition at a time, as ``sum`` need not
        total += float(np.einsum("i,i->", x[i : i + span], x[i : i + span]))
    return total


def _welch_block_at_a_time(x: np.ndarray, total=None) -> np.ndarray:
    """``measure``'s Welch energy of ``x`` (taper-free): all frames windowed,
    transformed and squared whole, their rows added one at a time in frame
    order; scaled to sum to ``total``, by default ``_span_energy(x)``."""
    seg = min(WELCH_SEGMENT, x.size)
    frames = sliding_window_view(x, seg)[:: max(1, seg // 2)]
    energy = np.zeros(seg // 2 + 1)
    for row in _weighted_power(frames * np.hanning(seg)):
        energy += row
    framed = energy.sum()
    energy *= (_span_energy(x) if total is None else total) / framed if framed > 0.0 else 0.0
    return energy


def _measured_energy(monkeypatch, signal, config):
    """(the metrics, the energy they were read from, the threads the call started)."""
    seen, started = [], []
    occupancy, start = analysis._occupancy, threading.Thread.start
    with monkeypatch.context() as m:
        m.setattr(analysis, "_occupancy", lambda f, e, *q: seen.append(e.copy()) or occupancy(f, e, *q))
        m.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        return measure(signal, config), seen[0], len(started)


#: Frames per block in the blockwise ``measure`` cases, so that several
#: blocks occur.
_MEASURE_BLOCK = 15


def _measure_lengths():
    """Lengths one sample below, at and above 1 frame, a block (15 frames),
    the worker's rule (32), and 40 and 113 frames (several blocks)."""
    at = [WELCH_SEGMENT + (f - 1) * (WELCH_SEGMENT // 2) for f in (1, 15, 32, 40, 113)]
    return [16, 4801] + [n + d for n in at for d in (-1, 0, 1)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_measure_equals_the_block_at_a_time_sum(monkeypatch, cpus):
    # the fields follow from the energy, so bit-equal energies give equal metrics
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", 2 * _MEASURE_BLOCK * WELCH_SEGMENT)
    config = ModulationConfig(tukey_alpha=0.0)
    for n in _measure_lengths():
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        metrics, energy, started = _measured_energy(monkeypatch, SampleBuffer(x, RATE), config)
        assert np.array_equal(energy, _welch_block_at_a_time(x)), n
        seg = min(WELCH_SEGMENT, n)
        frames = max(1, (n - seg) // max(1, seg // 2) + 1)
        # one worker, only by the filter's rule (two CPUs, two batches of FFT
        # points) and for two blocks or more; no thread on one CPU
        assert started == (cpus == 2 and frames * seg >= 2 * _FFT_POINTS
                           and frames > _MEASURE_BLOCK), n
        if cpus == 2:
            monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
            one = measure(SampleBuffer(x, RATE), config)
            monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
            assert np.array_equal(astuple(metrics), astuple(one)), n


def test_measure_memory_is_flat_in_signal_length(default_config):
    # Whole blocks of 128 windowed and transformed frames peaked at 17.3 MiB
    # at 10 s and 20.1 MiB at 18 s; one power buffer and sub-batches do not grow.
    _assert_flat_peaks(lambda sig: measure(sig, default_config))


def test_measure_threads_end_with_the_call(monkeypatch, default_config):
    x = SampleBuffer(np.random.default_rng(8).uniform(-1.0, 1.0, 5 * 48000), RATE)

    def metrics():
        found = measure(x, default_config)
        return np.array([found.inband_energy_db, found.leakage_below_carrier_db,
                         found.occupancy_lo_hz, found.occupancy_hi_hz])

    _threads_end_with_the_call(monkeypatch, metrics)


@pytest.mark.parametrize("span", [4096, None])
def test_measure_span_sums_stay_near_the_whole_core_sum(monkeypatch, span):
    # The scale is summed a span at a time. For floats that moves it by
    # rounding only; k**2 / 2**30 sums exactly in any order while the total
    # stays under 2**53 / 2**30, so PCM values under 2**23 samples do not move.
    if span is not None:
        monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", span)
    config = ModulationConfig(tukey_alpha=0.0)
    for n in (5000, 300001, 1 << 20):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 0.3
        pcm = rng.integers(-32768, 32768, n) / 32768.0
        for x in (floats, pcm):
            _, energy, _ = _measured_energy(monkeypatch, SampleBuffer(x, RATE), config)
            whole = _welch_block_at_a_time(x, float(np.einsum("i,i->", x, x)))
            assert np.allclose(energy, whole, rtol=1e-14, atol=0.0), n
        assert np.array_equal(energy, whole), n  # the PCM values


def _two_channel_wav(path, n: int) -> PcmClip:
    """A stereo clip of ``n`` frames written to ``path``: noise and an 18 kHz
    tone on channel 0, and on channel 1 a loud 17 kHz tone that would show if
    it were read."""
    rng = np.random.default_rng(n)
    k = np.arange(n)
    left = rng.integers(-8000, 8000, n) + np.round(12000 * np.sin(2 * np.pi * 18000 * k / RATE))
    right = np.round(30000 * np.sin(2 * np.pi * 17000 * k / RATE))
    clip = PcmClip(np.stack([left, right], axis=1).ravel().astype(np.int16), int(RATE), 2)
    write_wav(path, clip)
    return clip


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2])
def test_measure_of_every_source_has_the_same_bits(tmp_path, monkeypatch, cpus, alpha):
    # a PcmClip's interleaved samples read raw, and a WavFile had no samples
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    block = kernels._BLOCK_SAMPLES
    config = ModulationConfig(tukey_alpha=alpha)
    # core lengths at the span edges (for alpha 0), and 18 frames, whose core
    # at alpha 0.2 (14 samples) falls back to the whole clip
    for n in (18, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1):
        pcm = _two_channel_wav(tmp_path / "clip.wav", n)
        expected = astuple(measure(to_float(pcm), config))
        assert astuple(measure(pcm, config)) == expected, n
        with open_wav(tmp_path / "clip.wav") as wav:
            assert astuple(measure(wav, config)) == expected, n


def test_measure_of_an_open_wav_memory_is_flat_in_file_length(tmp_path, default_config):
    # A whole float copy of the clip is 3.7 MiB at 10 s and 22 MiB at 60 s;
    # spans of the file peak at 3.2-3.3 MiB at either length (and at 300 s).
    peaks = []
    for seconds in (10, 60):
        path = tmp_path / f"{seconds}s.wav"
        noise = np.random.default_rng(seconds).integers(-8000, 8000, seconds * 48000)
        write_wav(path, PcmClip(noise.astype(np.int16), 48000))
        del noise
        tracemalloc.start()
        try:
            with open_wav(path) as wav:
                measure(wav, default_config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
    assert max(peaks) < 4 << 20, peaks


# --- detect ---


def test_detect_clean_speech_not_flagged(corpus):
    verdict = detect(corpus["speech_low"])
    assert not verdict.flagged
    assert verdict.score == 0.0
    assert verdict.sustained_ms == 0.0


def test_detect_modulated_fixture_flagged(modulated_corpus):
    verdict = detect(modulated_corpus["speech_low"])
    assert verdict.flagged
    assert verdict.score >= 0.8


def _burst(ms: float, total_s: float = 2.0) -> SampleBuffer:
    n = int(total_s * RATE)
    x = np.zeros(n)
    m = int(ms / 1000.0 * RATE)
    t = np.arange(m) / RATE
    x[:m] = 0.5 * np.sin(2.0 * np.pi * 17000.0 * t)
    return SampleBuffer(x, RATE)


def test_detect_sustain_thresholding():
    # frames are 50 ms with 25 ms hop: a 150 ms burst spans 175 ms of
    # flagged frames (below the 200 ms default), a 250 ms burst spans 275 ms
    short = detect(_burst(150.0))
    assert not short.flagged
    assert short.sustained_ms == 175.0
    assert short.score > 0.0

    long = detect(_burst(250.0))
    assert long.flagged
    assert long.sustained_ms == 275.0


def test_detect_score_monotone_in_gain():
    from ultraband import ModulationConfig, embed, find_silence, modulate

    rng = np.random.default_rng(7)
    payload = modulate(speech_like(duration_s=1.5, f0=140.0, seed=50), ModulationConfig())
    host = SampleBuffer(0.004 * rng.standard_normal(int(4 * RATE)), RATE)
    silence = find_silence(host)
    scores = [
        detect(embed(host, payload, silence, gain=g)).score
        for g in (0.01, 0.05, 0.25, 1.0)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))
    assert scores[0] == 0.0  # below the flagging ratio at tiny gain
    assert scores[-1] > 0.3


def test_detect_short_signal_empty_verdict():
    verdict = detect(SampleBuffer(np.zeros(100), RATE))
    assert not verdict.flagged
    assert verdict.score == 0.0
    assert verdict.frame_flags.size == 0


@pytest.mark.parametrize("name", ["ratio_threshold", "sustain_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_detect_rejects_non_finite_setting(name, value):
    # both used to pass the check, and a flagged clip came back clean
    with pytest.raises(BadArgument, match=f"^{name} {value} must be positive and finite$"):
        detect(SampleBuffer(np.zeros(96000), RATE), **{name: value})


def test_detect_validation():
    sig = SampleBuffer(np.zeros(96000), RATE)
    with pytest.raises(ValueError):
        detect(sig, ratio_threshold=0.0)
    with pytest.raises(ValueError):
        detect(sig, sustain_ms=-1.0)
    with pytest.raises(BadBand):
        detect(sig, carrier_hz=20000.0, band_hz=6000.0)
    with pytest.raises(BadBand):
        detect(SampleBuffer(np.zeros(1000), 16000.0))  # band above Nyquist


def test_detect_grid_is_bounded_at_a_huge_rate():
    # a 107 M-sample frame: the whole grid and its two masks held 850 MB
    sig = SampleBuffer(np.zeros(48000), 2**31 - 1)
    tracemalloc.start()
    try:
        verdict = detect(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.frame_flags.size == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("rate, carrier_hz, band_hz", [
    (8000, 1000.0, 2000.0),  # the speech band reaches Nyquist
    (44000, 16000.0, 6000.0),  # the attack band reaches Nyquist
    (44100, 16000.0, 6000.0),
    (48000, 16000.0, 6000.0),
    (2**31 - 1, 16000.0, 6000.0),
])
def test_detect_band_bins_match_the_whole_grid(monkeypatch, rate, carrier_hz, band_hz):
    seen = []

    def spy(freqs, lo, hi, nyquist):
        seen.append((freqs, lo, hi, nyquist))
        return _band_mask(freqs, lo, hi, nyquist)

    monkeypatch.setattr(analysis, "_band_mask", spy)
    detect(SampleBuffer(np.zeros(16), rate), carrier_hz, band_hz)
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    bins, val = frame_len // 2 + 1, 1.0 / (frame_len * (1.0 / rate))
    if frame_len < 1 << 20:  # rfftfreq's grid is arange(bins) * val
        assert np.array_equal(np.fft.rfftfreq(frame_len, d=1.0 / rate), np.arange(bins) * val)
    assert len(seen) == 2
    for freqs, lo, hi, nyquist in seen:
        n = freqs.size
        assert np.array_equal(freqs, np.arange(n) * val)
        for a in range(0, bins, 1 << 22):  # the whole grid's mask, a piece at a time
            whole = _band_mask(np.arange(a, min(bins, a + (1 << 22))) * val, lo, hi, nyquist)
            assert np.array_equal(whole[: max(0, n - a)], _band_mask(freqs, lo, hi, nyquist)[a:])
            assert not whole[max(0, n - a) :].any()
    assert any(freqs.size == bins for freqs, *_ in seen) == (rate <= 44000)


def _detect_whole_batch(signal: SampleBuffer, ratio_threshold: float = 4.0,
                        carrier_hz: float = 16000.0, band_hz: float = 6000.0):
    """Reference: detect's flags, score and sustained_ms from the rfft of all
    frames at once."""
    rate = signal.sample_rate_hz
    nyquist = rate / 2.0
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = frame_len // 2
    frames = sliding_window_view(signal.samples, frame_len)[::hop]
    power = _weighted_power(frames)
    freqs = np.fft.rfftfreq(frame_len, d=1.0 / rate)
    attack = _band_mask(freqs, carrier_hz, min(carrier_hz + band_hz, nyquist), nyquist)
    speech = _band_mask(freqs, 300.0, min(8000.0, nyquist), nyquist)
    flags = power[:, attack].sum(axis=1) > ratio_threshold * power[:, speech].sum(axis=1)
    return flags, float(flags.mean()), _longest_run_ms(flags, frame_len, hop, rate)


def _straddling_bursts(rate: float, frames_per_block: int,
                       burst_hz: float = 17000.0) -> SampleBuffer:
    """A noisy 440 Hz tone over two and a half blocks of detect's frames,
    with a ``burst_hz`` burst (a cosine, so Nyquist works too) across each of
    the first block edges."""
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = frame_len // 2
    n_frames = max(40, 2 * frames_per_block + frames_per_block // 2)
    t = np.arange((n_frames + 1) * hop) / rate
    noise = np.random.default_rng(9).standard_normal(t.size)
    x = 0.1 * np.sin(2.0 * np.pi * 440.0 * t) + 0.02 * noise
    burst = 0.5 * np.cos(2.0 * np.pi * burst_hz * t)
    for k, edge in enumerate(range(frames_per_block, n_frames, frames_per_block)[:3]):
        start = max(0, (edge - 1 - k) * hop)  # 1-3 frames before the edge
        stop = (edge + 9 + 3 * k) * hop  # 9-15 frames after it
        x[start:stop] += burst[start:stop]
    return SampleBuffer(x / np.max(np.abs(x)), rate)


def _rising_tone(rate: float, tone_hz: float) -> SampleBuffer:
    """A noisy 440 Hz tone under a ``tone_hz`` cosine whose amplitude rises
    from 0 over 2 s: the flagging ratio crosses its threshold in one frame, so
    a bin weighted wrongly moves the first flagged frame."""
    t = np.arange(int(2.0 * rate)) / rate
    noise = np.random.default_rng(11).standard_normal(t.size)
    x = 0.1 * np.sin(2.0 * np.pi * 440.0 * t) + 0.02 * noise
    x += 0.25 * t * np.cos(2.0 * np.pi * tone_hz * t)
    return SampleBuffer(x / np.max(np.abs(x)), rate)


def _on_one_and_two_cpus(block_frames):
    """(block_frames, cpus) cases: each block size on two CPUs under its bare
    id, and on one CPU under that id plus "-1cpu"."""
    return [pytest.param(b, cpus, id=str(b) if cpus == 2 else f"{b}-1cpu")
            for cpus in (2, 1) for b in block_frames]


#: (rate, detect settings, burst Hz). 44.1 kHz frames are 2205 samples, an
#: odd length with no Nyquist bin, also under a band that reaches Nyquist
#: (22040 Hz is its top bin); at 16 kHz both the 5-8 kHz band and the
#: 300-8000 Hz speech band claim the Nyquist bin, where the bursts sit.
_DETECT_CASES = [
    (48000.0, {}, 17000.0),
    (44100.0, {}, 17000.0),
    (44100.0, {"carrier_hz": 16050.0}, 22040.0),
    (16000.0, {"carrier_hz": 5000.0, "band_hz": 3000.0, "ratio_threshold": 0.5}, 8000.0),
]


@pytest.mark.parametrize("block_frames, cpus", _on_one_and_two_cpus([1, 7, 256, None]))
def test_blockwise_detect_equals_whole_batch(monkeypatch, block_frames, cpus):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    for rate, kwargs, burst_hz in _DETECT_CASES:
        frame_len = int(round(FRAME_MS * rate / 1000.0))
        if block_frames is not None:
            monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", block_frames * frame_len)
        per_block = max(1, kernels._BLOCK_SAMPLES // frame_len)
        short = speech_like(duration_s=0.4, seed=4, rate=rate)
        for clip in (_straddling_bursts(rate, per_block, burst_hz), _rising_tone(rate, burst_hz),
                     short):
            flags, score, sustained = _detect_whole_batch(clip, **kwargs)
            verdict = detect(clip, **kwargs)
            assert np.array_equal(verdict.frame_flags, flags), rate
            assert verdict.score == score, rate
            assert verdict.sustained_ms == sustained, rate
            assert clip is short or verdict.flagged, rate


def _no_thread(self):
    raise AssertionError("a thread started on one CPU")


def _threads_end_with_the_call(monkeypatch, call_once, module=np.fft, name="rfft"):
    """``call_once()`` (an array) starts no thread on one CPU, gives the same
    array from four concurrent callers on two, and raises a worker's error
    from ``module.name`` (the FFT) only after the worker ended; no thread
    outlives a call."""
    before = threading.active_count()
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", _no_thread)
        expected = call_once()

    # more callers than cores, switching often: each call keeps to its own buffers
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    results = []
    callers = [threading.Thread(target=lambda: results.append(call_once())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 4
    for result in results:
        assert np.array_equal(result, expected)
    assert threading.active_count() == before

    # the FFT fails on the worker's rows only: the call raises it once the worker ended
    work, caller_id, errors = getattr(module, name), [], []

    def failing_off_the_caller(*args, **kwargs):
        if threading.get_ident() != caller_id[0]:
            raise MemoryError("worker rows")
        return work(*args, **kwargs)

    def call():
        caller_id.append(threading.get_ident())
        try:
            call_once()
        except MemoryError as exc:
            errors.append((str(exc), threading.active_count()))

    with monkeypatch.context() as m:
        m.setattr(module, name, failing_off_the_caller)
        runner = threading.Thread(target=call)
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive()
    assert errors == [("worker rows", before + 1)]  # the runner itself, no worker
    assert threading.active_count() == before


def test_detect_threads_end_with_the_call(monkeypatch):
    # 3 blocks at 48 kHz, of 128 frames: enough FFT points for the worker
    monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", 128 * 2400)
    clip = _straddling_bursts(RATE, 128)

    def verdict():
        found = detect(clip)
        return np.append(found.frame_flags, [found.score, found.sustained_ms])

    _threads_end_with_the_call(monkeypatch, verdict)
    # the overlap-add filter splits its blocks the same way past two batches
    x = SampleBuffer(np.random.default_rng(7).uniform(-1.0, 1.0, 5 * 48000), RATE)
    lowpass = design_lowpass(6000.0, RATE, 255)
    _threads_end_with_the_call(monkeypatch, lambda: apply_filter(lowpass, x).samples)


@pytest.mark.parametrize("stop_at", [0, 1])
@pytest.mark.parametrize("how", ["break", "raise", "close"])
def test_framed_worker_is_joined_when_the_consumer_stops(monkeypatch, how, stop_at):
    # stopping after the caller's block leaves the worker filling its first
    # block, after the worker's block it waits for its rows to be free
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    x = SampleBuffer(np.random.default_rng(14).standard_normal(10 * 48000), RATE)
    before = threading.active_count()

    def sums(frames, out):
        np.sum(frames, axis=1, keepdims=True, out=out)

    blocks = kernels._framed(x, 2400, 1200, sums, 1)
    if how == "close":
        for _ in range(stop_at + 1):
            next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
    else:
        def consume():
            for i, (first, rows) in enumerate(kernels._framed(x, 2400, 1200, sums, 1)):
                assert threading.active_count() == before + 1
                if i == stop_at and how == "break":
                    break
                if i == stop_at:
                    raise KeyError("consumer")

        if how == "raise":
            with pytest.raises(KeyError, match="consumer"):
                consume()
        else:
            consume()
    assert threading.active_count() == before


def _wav_file(path, interleaved: np.ndarray, rate: int, channels: int, list_chunk: bool):
    """A 16-bit PCM WAV built by hand; with ``list_chunk``, an odd-sized LIST
    chunk and its pad byte sit between ``fmt `` and ``data``."""
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, channels, rate, rate * 2 * channels,
                      2 * channels, 16)
    extra = struct.pack("<4sI", b"LIST", 7) + b"INFOabc" + b"\x00" if list_chunk else b""
    data = interleaved.astype("<i2").tobytes()
    body = b"WAVE" + fmt + extra + struct.pack("<4sI", b"data", len(data)) + data
    path.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body)


@pytest.mark.parametrize("block_frames, cpus", _on_one_and_two_cpus([1, 2, 7, None]))
@pytest.mark.parametrize("rate", [44100, 48000])
def test_streamed_detect_equals_whole_file(tmp_path, monkeypatch, rate, block_frames, cpus):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = frame_len // 2
    if block_frames is not None:
        monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", block_frames * frame_len)
    step = max(1, kernels._BLOCK_SAMPLES // frame_len)
    # 17 kHz bursts across the first block edges, long enough for every prefix
    bursts = np.round(_straddling_bursts(float(rate), step).samples * 32767).astype(np.int16)
    first_end = (step - 1) * hop + frame_len  # the first block's samples
    lengths = {frame_len - 1, frame_len}
    for edge in (first_end, first_end + step * hop):  # where blocks 1 and 2 end
        lengths |= {edge - 1, edge, edge + 1}
    cases = [(f"n{n}", bursts[:n], 1, False) for n in sorted(lengths)]
    # channel 1 is a loud 17 kHz tone that would flag every frame if it were read
    loud = np.round(30000 * np.sin(2 * np.pi * 17000 * np.arange(bursts.size) / rate))
    cases += [("bursts", bursts, 1, False),
              ("stereo_list", np.stack([bursts, loud.astype(np.int16)], axis=1).ravel(), 2, True)]
    for name, interleaved, channels, list_chunk in cases:
        path = tmp_path / f"{name}.wav"
        _wav_file(path, interleaved, rate, channels, list_chunk)
        whole = detect(to_float(read_wav(path)))
        with open_wav(path) as wav:
            streamed = detect(wav)
        assert np.array_equal(streamed.frame_flags, whole.frame_flags), name
        assert (streamed.score, streamed.sustained_ms) == (whole.score, whole.sustained_ms), name
        if len(wav) >= frame_len:
            flags, score, sustained = _detect_whole_batch(to_float(read_wav(path)))
            assert np.array_equal(streamed.frame_flags, flags), name
            assert (streamed.score, streamed.sustained_ms) == (score, sustained), name
        if name in ("bursts", "stereo_list"):
            assert streamed.flagged and not streamed.frame_flags.all(), name


@pytest.mark.parametrize("block_frames, cpus", _on_one_and_two_cpus([1, 7, 130, None]))
def test_streamed_stft_equals_whole_file(tmp_path, monkeypatch, block_frames, cpus):
    # under the window a block holds half the frames of _BLOCK_SAMPLES: 130
    # makes blocks of 65, the default 32; either has the worker on two CPUs
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    frame_len, hop, rate = 2048, 1024, 48000
    if block_frames is not None:
        monkeypatch.setattr(kernels, "_BLOCK_SAMPLES", block_frames * frame_len)
    step = max(1, kernels._BLOCK_SAMPLES // (2 * frame_len))
    first_end = (step - 1) * hop + frame_len  # the first block's samples
    lengths = {frame_len - 1, frame_len}
    for edge in (first_end, first_end + step * hop):  # where blocks 1 and 2 end
        lengths |= {edge - 1, edge, edge + 1}
    noise = np.random.default_rng(block_frames).integers(-20000, 20000, max(lengths) + hop)
    cases = [(f"n{n}", noise[:n], 1, False) for n in sorted(lengths)]
    # channel 1 is a loud 17 kHz tone, which would show if it were read
    loud = np.round(30000 * np.sin(2 * np.pi * 17000 * np.arange(noise.size) / rate))
    cases.append(("stereo_list", np.stack([noise, loud], axis=1).ravel(), 2, True))
    for name, interleaved, channels, list_chunk in cases:
        path = tmp_path / f"{name}.wav"
        _wav_file(path, interleaved, rate, channels, list_chunk)
        whole = to_float(read_wav(path))
        if len(whole) < frame_len:
            with open_wav(path) as wav, pytest.raises(SignalTooShort):
                stft(wav)
            continue
        with open_wav(path) as wav:
            streamed = stft(wav)
        expected = stft(whole)
        assert isinstance(streamed.sample_rate_hz, float), name
        for field, value in zip(astuple(streamed), astuple(expected)):
            assert np.array_equal(field, value), name
        assert streamed.magnitudes_db.shape[0] == (len(whole) - frame_len) // hop + 1, name


def test_stft_threads_end_with_the_call(monkeypatch):
    # 5 s is 233 frames, blocks of 32 under the window: the worker's rule holds
    x = SampleBuffer(np.random.default_rng(12).uniform(-1.0, 1.0, 5 * 48000), RATE)
    _threads_end_with_the_call(monkeypatch, lambda: stft(x).magnitudes_db)


def test_streamed_detect_memory_is_flat_in_file_length(tmp_path):
    # reading the whole file held its bytes, a copy of them and the float64
    # signal: over 40 MB at 80 s, and four times the 20 s peak. Streamed, the
    # peak is 17.1 MiB at both lengths (21.1 MiB while _weighted_power made
    # four block-sized temporaries); the ceiling leaves 2.9 MiB of margin.
    peaks = []
    for seconds in (20, 80):
        path = tmp_path / f"{seconds}s.wav"
        noise = np.random.default_rng(seconds).integers(-8000, 8000, seconds * 48000)
        write_wav(path, PcmClip(noise.astype(np.int16), 48000))
        del noise
        tracemalloc.start()
        try:
            with open_wav(path) as wav:
                verdict = detect(wav)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.frame_flags.size == (seconds * 48000 - 2400) // 1200 + 1
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
    assert max(peaks) < 20 << 20, peaks


def test_many_channel_readers_hold_one_lane(tmp_path, default_config):
    # 1024 channels of 12000 frames are 24.6 MB: reading each span's
    # interleaved frames whole held about 24 MiB. Through the reader's 2 MiB
    # scratch, detect and measure each peak under 8 MiB.
    rate, channels, n = 48000, 1024, 12000
    frames = np.empty((n, channels), dtype=np.int16)
    frames[:, 0] = np.random.default_rng(1024).integers(-8000, 8000, n)
    # the other channels are a loud 17 kHz tone that would flag every frame if read
    frames[:, 1:] = np.round(30000 * np.sin(2 * np.pi * 17000 * np.arange(n) / rate))[:, None]
    path = tmp_path / "many.wav"
    write_wav(path, PcmClip(frames.reshape(-1), rate, channels))
    del frames
    whole = to_float(read_wav(path))

    def traced(call):
        tracemalloc.start()
        try:
            with open_wav(path) as wav:
                got = call(wav)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verdict, peak = traced(detect)
    assert peak < 8 << 20, peak
    expected = detect(whole)
    assert not verdict.flagged and np.array_equal(verdict.frame_flags, expected.frame_flags)
    assert (verdict.score, verdict.sustained_ms) == (expected.score, expected.sustained_ms)
    metrics, peak = traced(lambda wav: measure(wav, default_config))
    assert peak < 8 << 20, peak
    assert metrics == measure(whole, default_config)


def _longest_run_loop(flags):
    """Reference: the per-frame loop _longest_run_ms replaced, as a frame count."""
    best = current = 0
    for f in flags:
        current = current + 1 if f else 0
        best = max(best, current)
    return best


def test_longest_run_matches_frame_loop(corpus, modulated_corpus):
    rng = np.random.default_rng(404)
    flag_sets = [detect(sig).frame_flags for sig in [*corpus.values(), *modulated_corpus.values()]]
    flag_sets += [np.zeros(0, dtype=bool), np.ones(1, dtype=bool), np.ones(7, dtype=bool)]
    for _ in range(250):
        n = int(rng.integers(0, 400))
        flag_sets.append(rng.random(n) < rng.uniform(0.0, 1.0))
    for flags in flag_sets:
        frame_len, hop, rate = 2400, 1200, 48000.0
        best = _longest_run_loop(flags)
        expected = 0.0 if best == 0 else ((best - 1) * hop + frame_len) / rate * 1000.0
        assert _longest_run_ms(flags, frame_len, hop, rate) == expected


# --- render_spectrogram ---


def _read_pgm(path):
    raw = path.read_bytes()
    magic, dims, maxval, pixels = raw.split(b"\n", 3)
    width, height = map(int, dims.split())
    assert magic == b"P5"
    assert maxval == b"255"
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def test_render_silence_all_black(tmp_path):
    spec = stft(SampleBuffer(np.zeros(8192), RATE), 1024, 512)
    out = tmp_path / "dark.pgm"
    render_spectrogram(spec, out)
    img = _read_pgm(out)
    assert img.shape == (513, 15)
    assert img.max() == 0


def test_render_tone_bright_line(tmp_path):
    spec = stft(tone(17000.0, amp=1.0), 2048, 1024)
    out = tmp_path / "line.pgm"
    render_spectrogram(spec, out)
    img = _read_pgm(out)
    # highest frequency is the top row; 17 kHz sits near the top quarter
    bin_17k = int(np.argmin(np.abs(spec.bin_freqs - 17000.0)))
    bright_row = img.shape[0] - 1 - bin_17k
    assert img[bright_row].mean() > 200
    quiet_row = img.shape[0] - 1 - int(np.argmin(np.abs(spec.bin_freqs - 5000.0)))
    assert img[quiet_row].mean() < 30


def test_render_bad_path(tmp_path):
    spec = stft(SampleBuffer(np.zeros(2048), RATE), 1024, 512)
    with pytest.raises(IoFailure):
        render_spectrogram(spec, tmp_path / "missing" / "x.pgm")
