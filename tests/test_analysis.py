"""Spectral measurements: STFT, band energy, metrics, detector, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import FULLBAND_NAME, RATE, speech_like, tone
from ultraband import (
    BadBand,
    EmptySignal,
    IoFailure,
    ModulationConfig,
    SampleBuffer,
    SignalTooShort,
    band_energy,
    detect,
    measure,
    modulate,
    render_spectrogram,
    stft,
)
from ultraband import analysis
from ultraband.analysis import FRAME_MS, _band_mask, _longest_run_ms, _weighted_power

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
)
def test_partition_property(cut_points, seed):
    rng = np.random.default_rng(seed)
    sig = SampleBuffer(rng.standard_normal(4096), RATE)
    cuts = [0.0] + sorted(cut_points) + [RATE / 2.0]
    total = band_energy(sig, 0.0, RATE / 2.0)
    parts = sum(band_energy(sig, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    assert parts == pytest.approx(total, rel=1e-9)


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


def _detect_whole_batch(signal: SampleBuffer, ratio_threshold: float = 4.0):
    """Reference: detect's flags, score and sustained_ms from the rfft of all
    frames at once."""
    rate = signal.sample_rate_hz
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = frame_len // 2
    frames = sliding_window_view(signal.samples, frame_len)[::hop]
    power = _weighted_power(frames)
    freqs = np.fft.rfftfreq(frame_len, d=1.0 / rate)
    attack = _band_mask(freqs, 16000.0, 22000.0, rate / 2.0)
    speech = _band_mask(freqs, 300.0, 8000.0, rate / 2.0)
    flags = power[:, attack].sum(axis=1) > ratio_threshold * power[:, speech].sum(axis=1)
    return flags, float(flags.mean()), _longest_run_ms(flags, frame_len, hop, rate)


def _straddling_bursts(rate: float, frames_per_block: int) -> SampleBuffer:
    """A noisy 440 Hz tone over two and a half blocks of detect's frames,
    with a 17 kHz burst across each of the first block edges."""
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = frame_len // 2
    n_frames = max(40, 2 * frames_per_block + frames_per_block // 2)
    t = np.arange((n_frames + 1) * hop) / rate
    noise = np.random.default_rng(9).standard_normal(t.size)
    x = 0.1 * np.sin(2.0 * np.pi * 440.0 * t) + 0.02 * noise
    burst = 0.5 * np.sin(2.0 * np.pi * 17000.0 * t)
    for k, edge in enumerate(range(frames_per_block, n_frames, frames_per_block)[:3]):
        start = max(0, (edge - 1 - k) * hop)  # 1-3 frames before the edge
        stop = (edge + 9 + 3 * k) * hop  # 9-15 frames after it
        x[start:stop] += burst[start:stop]
    return SampleBuffer(x / np.max(np.abs(x)), rate)


@pytest.mark.parametrize("block_frames", [1, 7, 256, None])
def test_blockwise_detect_equals_whole_batch(monkeypatch, block_frames):
    for rate in (48000.0, 44100.0):
        frame_len = int(round(FRAME_MS * rate / 1000.0))
        if block_frames is not None:
            monkeypatch.setattr(analysis, "_BLOCK_SAMPLES", block_frames * frame_len)
        per_block = max(1, analysis._BLOCK_SAMPLES // frame_len)
        short = speech_like(duration_s=0.4, seed=4, rate=rate)
        for clip in (_straddling_bursts(rate, per_block), short):
            flags, score, sustained = _detect_whole_batch(clip)
            verdict = detect(clip)
            assert np.array_equal(verdict.frame_flags, flags)
            assert verdict.score == score
            assert verdict.sustained_ms == sustained
            assert clip is short or verdict.flagged


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
