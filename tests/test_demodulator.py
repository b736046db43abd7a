"""Coherent recovery: round-trip fidelity, silence handling, bandwidth."""

import tracemalloc

import numpy as np
import pytest

from conftest import FULLBAND_NAME, RATE, dft_magnitude, ncc, speech_like, tone
from ultraband import demodulator, kernels
from ultraband.analysis import _occupancy, _spectrum, _weighted_power
from ultraband.kernels import BAND_HZ, CARRIER_HZ, FIR_TAPS, next_fast_len
from ultraband import (
    ConfigInvalid,
    EmptySignal,
    PcmClip,
    SampleBuffer,
    apply_filter,
    demodulate,
    demodulate_file,
    design_lowpass,
    modulate,
    recovered_bandwidth,
    to_float,
    to_pcm,
    tukey_window,
    write_wav,
)


def test_config_rejects_band_over_nyquist():
    demodulate(tone(17000.0), carrier_hz=16000.0, recovery_cutoff_hz=6000.0)
    with pytest.raises(ConfigInvalid):
        demodulate(tone(12000.0, rate=32000.0), carrier_hz=16000.0, recovery_cutoff_hz=6000.0)


# The rate-free rules run before the input file is read.
def test_config_rejects_even_taps(tmp_path):
    with pytest.raises(ConfigInvalid, match="filter_taps 128 must be an odd integer >= 3"):
        demodulate_file(tmp_path / "missing.wav", tmp_path / "x.wav", filter_taps=128)


def test_config_rejects_nonpositive_carrier(tmp_path):
    with pytest.raises(ConfigInvalid, match="carrier_hz 0.0 must be positive"):
        demodulate_file(tmp_path / "missing.wav", tmp_path / "x.wav", carrier_hz=0.0)


def test_config_rejects_nonpositive_cutoff(tmp_path):
    with pytest.raises(ConfigInvalid, match="recovery_cutoff_hz -1.0 must be positive"):
        demodulate_file(tmp_path / "missing.wav", tmp_path / "x.wav", recovery_cutoff_hz=-1.0)


def test_demodulate_empty():
    with pytest.raises(EmptySignal):
        demodulate(SampleBuffer(np.zeros(0), RATE))


def test_high_tone_comes_down_at_unit_amplitude():
    out = demodulate(tone(17000.0, amp=1.0))
    core = out.samples[len(out) // 10 : -len(out) // 10]
    amp = dft_magnitude(core, 1000.0, RATE) / (core.size / 2.0)
    assert amp == pytest.approx(1.0, abs=0.02)
    for spurious_hz in (500.0, 2000.0, 3000.0):
        spur = dft_magnitude(core, spurious_hz, RATE) / (core.size / 2.0)
        assert 20.0 * np.log10(spur / amp) <= -60.0


def test_round_trip_tone_correlation(default_config):
    x = tone(1000.0)
    recovered = demodulate(modulate(x, default_config))
    lpf = design_lowpass(default_config.cutoff_hz, RATE, default_config.filter_taps)
    reference = apply_filter(lpf, x)
    assert ncc(recovered.samples, reference.samples) >= 0.99


def test_round_trip_corpus_correlation(corpus, modulated_corpus, default_config):
    lpf = design_lowpass(default_config.cutoff_hz, RATE, default_config.filter_taps)
    for name, sig in corpus.items():
        recovered = demodulate(modulated_corpus[name])
        reference = apply_filter(lpf, sig)
        assert ncc(recovered.samples, reference.samples) >= 0.95, name


def test_silence_in_silence_out():
    out = demodulate(SampleBuffer(np.zeros(96000), RATE))
    assert np.max(np.abs(out.samples)) == 0.0


def test_nothing_to_recover_stays_quiet():
    # inputs with no content above the carrier must not be amplified
    lpf = design_lowpass(6000.0, RATE, 255)
    rng = np.random.default_rng(21)
    flat = apply_filter(lpf, SampleBuffer(0.5 * rng.standard_normal(96000), RATE))
    for signal in (tone(1000.0), flat):
        out = demodulate(signal)
        ratio_db = 10.0 * np.log10(
            np.sum(out.samples**2) / np.sum(signal.samples**2)
        )
        assert ratio_db <= -40.0


def test_envelope_recovery_matches_taper(default_config):
    constant = SampleBuffer(np.full(96000, 0.5), RATE)
    recovered = demodulate(modulate(constant, default_config))
    taper = tukey_window(96000, default_config.tukey_alpha)
    core = slice(4800, -4800)
    assert np.max(np.abs(recovered.samples[core] - taper[core])) <= 0.02


def test_phase_search_restores_misaligned_dc_heavy_signal(default_config):
    # one-sample slice offset rotates the 16 kHz carrier by 120 degrees
    t = np.arange(96000) / RATE
    baseband = SampleBuffer(0.8 + 0.15 * np.sin(2.0 * np.pi * 300.0 * t), RATE)
    y = modulate(baseband, default_config)
    reference = demodulate(y).samples[1:]
    misaligned = SampleBuffer(y.samples[1:], RATE)

    blind = demodulate(misaligned, phase_search=False)
    searched = demodulate(misaligned, phase_search=True)
    # sign may flip: the energy criterion cannot tell a phase from its opposite
    assert abs(ncc(blind.samples, reference)) <= 0.7
    assert abs(ncc(searched.samples, reference)) >= 0.95


def _misaligned_dc_heavy(config):
    t = np.arange(96000) / RATE
    baseband = SampleBuffer(0.8 + 0.15 * np.sin(2.0 * np.pi * 300.0 * t), RATE)
    return SampleBuffer(modulate(baseband, config).samples[1:], RATE)


def _cropped_covert(config):
    y = modulate(speech_like(seed=8), config)
    return SampleBuffer(y.samples[7:-500], RATE)


def _brute_force_candidates(signal):
    # the 16-pass search written out: one direct-form filter per phase
    lpf = design_lowpass(BAND_HZ, RATE, FIR_TAPS)
    d = lpf.group_delay
    base = 2.0 * np.pi * CARRIER_HZ * np.arange(len(signal)) / RATE
    return [
        np.convolve(2.0 * signal.samples * np.cos(base + 2.0 * np.pi * k / 16), lpf.taps)[
            d : d + len(signal)
        ]
        for k in range(16)
    ]


@pytest.mark.parametrize("make", [_misaligned_dc_heavy, _cropped_covert])
def test_phase_search_matches_brute_force_pick(make, default_config):
    signal = make(default_config)
    candidates = _brute_force_candidates(signal)
    energies = np.array([np.dot(c, c) for c in candidates])
    ties = np.flatnonzero(energies >= (1.0 - 1e-6) * energies.max())
    got = demodulate(signal, phase_search=True).samples
    diffs = {
        int(k): np.max(np.abs(got - candidates[k] / np.max(np.abs(candidates[k])))) for k in ties
    }
    best = min(diffs, key=diffs.get)
    assert diffs[best] <= 1e-9
    # of a tied pair k, k + 8 the lower index is returned
    assert best < 8


@pytest.mark.parametrize("carrier, rate, taps", [
    (CARRIER_HZ, RATE, FIR_TAPS), (15999.7, 44100.0, 255), (1000.0, 8000.0, 3)])
def test_band_pass_taps_are_the_low_pass_moved_to_the_carrier(carrier, rate, taps):
    # an independent form of the search's tap rows: 2h * e^(-j*w*k), k = -d..d
    lpf = design_lowpass(BAND_HZ if rate > 2 * (carrier + BAND_HZ) else 500.0, rate, taps)
    w = 2.0 * np.pi * carrier / rate * np.arange(-(taps // 2), taps // 2 + 1)
    rows = demodulator._band_pass_taps(lpf, carrier, rate)
    expected = np.stack([2.0 * lpf.taps * np.cos(w), -2.0 * lpf.taps * np.sin(w)])
    assert rows.shape == (2, taps)
    assert np.max(np.abs(rows - expected)) <= 1e-13


def test_phase_search_costs_two_filter_passes(monkeypatch, default_config):
    # one filter call: the search's two passes are two tap rows (the complex
    # band-pass) on one transform of the input, which no carrier table mixes;
    # the plain detector's one pass filters the input times one table
    calls = []
    overlap_add = demodulator._overlap_add

    def counting(source, taps, **mix):
        calls.append((len(source), taps.shape[:-1], np.ndim(mix.get("mix_in"))))
        return overlap_add(source, taps, **mix)

    monkeypatch.setattr(demodulator, "_overlap_add", counting)
    signal = _cropped_covert(default_config)
    demodulate(signal, phase_search=True)
    assert calls == [(len(signal), (2,), 0)]
    calls.clear()
    demodulate(signal)
    assert calls == [(len(signal), (), 1)]


def test_phase_search_memory_at_10_s():
    # 9.8-10.3 MiB measured on two CPUs (11.65 MiB with an input row per
    # carrier table, 22.8 MiB with per-sample carriers); 1.7 MiB margin
    high = SampleBuffer(np.random.default_rng(5).uniform(-1.0, 1.0, 10 * int(RATE)), RATE)
    tracemalloc.start()
    try:
        demodulate(high, phase_search=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20, peak


@pytest.mark.parametrize("phase_search", [False, True])
def test_kept_result_holds_only_its_own_samples(phase_search):
    # a result that is a view of the filter's two-row output keeps both rows
    # alive: 2.0 times its own bytes
    high = SampleBuffer(np.random.default_rng(5).uniform(-1.0, 1.0, 10 * int(RATE)), RATE)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = demodulate(high, phase_search=phase_search)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * result.samples.nbytes, kept / result.samples.nbytes


def test_phase_search_polarity_is_repeatable(default_config):
    signal = _misaligned_dc_heavy(default_config)
    first = demodulate(signal, phase_search=True)
    for _ in range(3):
        assert np.array_equal(demodulate(signal, phase_search=True).samples, first.samples)


# --- recovered_bandwidth ---


def test_bandwidth_of_pure_tone():
    # 2 s is one transform; 10 s is several segments with a short last one
    for seconds in (2.0, 10.0):
        for rate in (48000.0, 44100.0):
            signal = tone(1000.0, duration_s=seconds, rate=rate)
            assert recovered_bandwidth(signal) == pytest.approx(1000.0, abs=1.0), (seconds, rate)


def test_bandwidth_of_silence_is_zero():
    assert recovered_bandwidth(SampleBuffer(np.zeros(1024), RATE)) == 0.0


def test_bandwidth_empty():
    with pytest.raises(EmptySignal):
        recovered_bandwidth(SampleBuffer(np.zeros(0), RATE))


def test_full_band_fixture_recovers_most_of_the_channel(
    corpus, modulated_corpus, default_config
):
    recovered = demodulate(modulated_corpus[FULLBAND_NAME])
    assert 5000.0 <= recovered_bandwidth(recovered) <= 6500.0


def test_narrow_channel_shrinks_bandwidth(modulated_corpus):
    # stand-in for a lossy acoustic hop: band-limit the recovered audio
    # to 3 kHz and add a small noise floor
    recovered = demodulate(modulated_corpus[FULLBAND_NAME])
    channel = apply_filter(design_lowpass(3000.0, RATE, 255), recovered)
    rng = np.random.default_rng(5)
    noisy = SampleBuffer(
        channel.samples
        + 10 ** (-50.0 / 20.0) * np.max(np.abs(channel.samples)) * rng.standard_normal(len(channel)),
        RATE,
    )
    assert 2000.0 <= recovered_bandwidth(noisy) <= 3500.0


def _bandwidth_exact_length(signal: SampleBuffer) -> float:
    """``recovered_bandwidth`` before the fast-length padding: the spectrum
    at the signal's own length."""
    freqs = np.fft.rfftfreq(len(signal), d=1.0 / signal.sample_rate_hz)
    (bandwidth,) = _occupancy(freqs, _weighted_power(signal.samples), 0.95)
    return bandwidth


def _bandwidth_padded(signal: SampleBuffer) -> float:
    """``recovered_bandwidth`` before the segments: one transform of the
    whole signal zero-padded to ``next_fast_len(n)``."""
    n_fft = next_fast_len(len(signal))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / signal.sample_rate_hz)
    (bandwidth,) = _occupancy(freqs, _weighted_power(signal.samples, n_fft), 0.95)
    return bandwidth


def test_bandwidth_up_to_2_17_samples_is_one_padded_transform():
    rng = np.random.default_rng(2017)
    lengths = [1, 2, 4801, 48017, 2**17 - 1, 2**17, *rng.integers(3, 2**17, 40)]
    for i, n in enumerate(lengths):
        x = rng.standard_normal(n) if i % 2 else speech_like(duration_s=n / RATE, seed=i).samples
        signal = SampleBuffer(x, RATE)
        assert recovered_bandwidth(signal) == _bandwidth_padded(signal), n


def test_fast_length_bandwidth_stays_near_exact_length():
    # 240 seeded signals of 1000-20000 samples, each within 8 bins of
    # rate / n. The padded spectrum samples the same transform on a finer
    # grid, so the 95% point moves by a few bins. Each tone of a pair
    # holds at least 10% of the energy: when one line holds 95-97%, the
    # 95% point sits on its leakage skirt and moves by tens of bins
    # between any two lengths, padded or not.
    rng = np.random.default_rng(2026)
    for i in range(240):
        n = int(rng.integers(1000, 20000))
        if i % 3 == 0:
            x = rng.standard_normal(n)
        elif i % 3 == 1:
            x = speech_like(duration_s=n / RATE, seed=i).samples
        else:
            t = np.arange(n) / RATE
            f_a, f_b = rng.uniform(50.0, 23000.0, 2)
            share = rng.uniform(0.1, 0.9)
            x = np.sqrt(share) * np.sin(2.0 * np.pi * f_a * t) + np.sqrt(1.0 - share) * np.sin(
                2.0 * np.pi * f_b * t + 1.0
            )
        signal = SampleBuffer(x, RATE)
        moved = abs(recovered_bandwidth(signal) - _bandwidth_exact_length(signal))
        assert moved <= 8 * RATE / n, (i, n, moved / (RATE / n))


@pytest.mark.parametrize("cpus", [1, 2])
def test_bandwidth_of_a_clip_reads_channel_zero_a_block_at_a_time(monkeypatch, cpus):
    # demodulate_file measures the clip it wrote: its spans have to_float's bits
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    rng = np.random.default_rng(31)
    for n in (1, 4801, 2**17, 2**17 + 1, 3 * 2**17 - 1, 3 * 2**17 + 7):
        pcm = PcmClip(rng.integers(-32768, 32768, 2 * n).astype(np.int16), 48000, channels=2)
        assert len(pcm) == n
        for got, expected in zip(_spectrum(pcm), _spectrum(to_float(pcm))):
            assert np.array_equal(got, expected), n
        assert recovered_bandwidth(pcm) == recovered_bandwidth(to_float(pcm)), n
    with pytest.raises(EmptySignal):
        recovered_bandwidth(PcmClip(np.zeros(0, dtype=np.int16), 48000))
    # 60 s of stereo holds no float copy of the clip (22 MiB), only blocks
    pcm = PcmClip(rng.integers(-32768, 32768, 2 * 60 * 48000).astype(np.int16), 48000, channels=2)
    tracemalloc.start()
    try:
        recovered_bandwidth(pcm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_demodulate_file_reports_bandwidth(tmp_path, modulated_corpus):
    src = tmp_path / "high.wav"
    dst = tmp_path / "base.wav"
    write_wav(src, to_pcm(modulated_corpus[FULLBAND_NAME]))
    bandwidth = demodulate_file(src, dst)
    assert 5000.0 <= bandwidth <= 6500.0
    assert dst.exists()
