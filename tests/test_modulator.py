"""Up-conversion pipeline: band placement, sideband purity, config plumbing."""

import numpy as np
import pytest

from conftest import RATE, dft_magnitude, speech_like, tone
from ultraband import (
    ConfigInvalid,
    EmptySignal,
    IoFailure,
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    WindowSpec,
    apply_filter,
    band_energy,
    design_lowpass,
    hilbert,
    load_config,
    measure,
    modulate,
    modulate_file,
    peak_normalize,
    read_wav,
    resample,
    to_pcm,
    tukey_window,
    write_wav,
)


def _central(buf: SampleBuffer, frac: float = 0.05) -> SampleBuffer:
    n = len(buf)
    edge = int(round(n * frac))
    return SampleBuffer(buf.samples[edge : n - edge], buf.sample_rate_hz)


# --- config validation ---


@pytest.mark.parametrize(
    "kwargs",
    [
        {"carrier_hz": 0.0},
        {"cutoff_hz": -100.0},
        {"carrier_hz": 20000.0, "cutoff_hz": 6000.0},  # 26 kHz > Nyquist
        {"tukey_alpha": 1.2},
        {"filter_taps": 256},
        {"filter_taps": 1},
        {"normalize_target": 0.0},
        {"normalize_target": 1.5},
        {"working_rate_hz": -48000.0},
        {"working_rate_hz": float("inf")},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigInvalid):
        ModulationConfig(**kwargs).validate()


def test_config_defaults_valid():
    ModulationConfig().validate()


# --- config file ---


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "mod.conf"
    path.write_text(
        "# comment line\n"
        "carrier_hz = 15000\n"
        "cutoff_hz = 5000   # trailing comment\n"
        "\n"
        "filter_taps = 127\n"
    )
    cfg = load_config(path)
    assert cfg.carrier_hz == 15000.0
    assert cfg.cutoff_hz == 5000.0
    assert cfg.filter_taps == 127
    assert cfg.tukey_alpha == 0.05  # untouched default


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("carier_hz = 16000\n")
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_load_config_bad_number(tmp_path):
    path = tmp_path / "bad2.conf"
    path.write_text("carrier_hz = sixteen\n")
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_load_config_not_key_value(tmp_path):
    path = tmp_path / "bad3.conf"
    path.write_text("just some words\n")
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_load_config_validates_result(tmp_path):
    path = tmp_path / "bad4.conf"
    path.write_text("carrier_hz = 20000\ncutoff_hz = 6000\n")
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_config(tmp_path / "absent.conf")


# --- modulate ---


def test_modulate_empty():
    with pytest.raises(EmptySignal):
        modulate(SampleBuffer(np.zeros(0), RATE))


def test_modulate_silence_stays_silent(default_config):
    out = modulate(SampleBuffer(np.zeros(96000), RATE), default_config)
    assert np.max(np.abs(out.samples)) == 0.0


def test_modulate_deterministic(corpus, default_config):
    a = modulate(corpus["speech_low"], default_config)
    b = modulate(corpus["speech_low"], default_config)
    assert np.array_equal(a.samples, b.samples)


def test_modulate_peak_at_target(modulated_corpus):
    for out in modulated_corpus.values():
        assert np.max(np.abs(out.samples)) == pytest.approx(1.0, abs=1e-12)


def test_modulate_endpoints_exactly_zero(modulated_corpus):
    for out in modulated_corpus.values():
        assert out.samples[0] == 0.0
        assert out.samples[-1] == 0.0


def test_tone_maps_to_single_line(default_config):
    out = _central(modulate(tone(1000.0), default_config))
    e_line = band_energy(out, 16950.0, 17050.0)
    e_total = band_energy(out, 0.0, RATE / 2.0)
    assert e_line >= 0.99 * e_total


def test_tone_lower_sideband_suppressed(default_config):
    # central 0.9 s slice keeps both probe frequencies on integer cycles
    out = modulate(tone(1000.0), default_config)
    n = len(out)
    half = int(0.45 * RATE)
    core = out.samples[n // 2 - half : n // 2 + half]
    upper = dft_magnitude(core, 17000.0, RATE)
    lower = dft_magnitude(core, 15000.0, RATE)
    assert 20.0 * np.log10(lower / upper) <= -40.0


def test_band_confinement_whole_corpus(modulated_corpus):
    for name, out in modulated_corpus.items():
        core = _central(out)
        e_below = band_energy(core, 0.0, 15500.0)
        e_total = band_energy(core, 0.0, RATE / 2.0)
        assert 10.0 * np.log10(e_below / e_total) <= -40.0, name


def test_modulate_output_rate_is_working_rate(default_config):
    t = np.arange(44100) / 44100.0
    sig = SampleBuffer(0.5 * np.sin(2.0 * np.pi * 440.0 * t), 44100.0)
    out = modulate(sig, default_config)
    assert out.sample_rate_hz == 48000.0
    assert len(out) == pytest.approx(48000, abs=2)


def test_alternate_carrier(corpus):
    cfg = ModulationConfig(carrier_hz=14000.0, cutoff_hz=5000.0)
    out = _central(modulate(corpus["two_tone"], cfg))
    e_band = band_energy(out, 14000.0, 19000.0)
    e_total = band_energy(out, 0.0, RATE / 2.0)
    assert e_band >= 0.99 * e_total


# --- modulate_file ---


def test_modulate_file_metrics_describe_disk_samples(tmp_path, corpus, default_config):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, to_pcm(corpus["speech_low"]))
    metrics = modulate_file(src, dst, default_config)
    clip = read_wav(dst)
    assert clip.sample_rate_hz == 48000
    assert metrics.leakage_below_carrier_db <= -40.0
    assert 15800.0 <= metrics.occupancy_lo_hz
    assert metrics.occupancy_hi_hz <= 22200.0


def test_modulate_file_deterministic_bytes(tmp_path, corpus, default_config):
    src = tmp_path / "in.wav"
    write_wav(src, to_pcm(corpus["two_tone"]))
    out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
    modulate_file(src, out1, default_config)
    modulate_file(src, out2, default_config)
    assert out1.read_bytes() == out2.read_bytes()


def test_modulate_file_stereo_uses_channel_zero(tmp_path, default_config):
    t = np.arange(96000) / RATE
    left = (32000 * 0.8 * np.sin(2.0 * np.pi * 1000.0 * t)).astype(np.int16)
    right = np.zeros(96000, dtype=np.int16)
    interleaved = np.empty(192000, dtype=np.int16)
    interleaved[0::2] = left
    interleaved[1::2] = right
    src = tmp_path / "stereo.wav"
    dst = tmp_path / "mono_out.wav"
    write_wav(src, PcmClip(interleaved, 48000, channels=2))
    metrics = modulate_file(src, dst, default_config)
    assert metrics.inband_energy_db > -40.0  # left channel content survived
    assert read_wav(dst).channels == 1


# --- Hilbert transform at a fast length ---


def _modulate_circular(signal: SampleBuffer, config: ModulationConfig) -> SampleBuffer:
    """``modulate`` before the fast-length padding: the Hilbert transform ran
    circularly at the clip's own length."""
    work = resample(signal, config.working_rate_hz)
    lpf = design_lowpass(config.cutoff_hz, config.working_rate_hz, config.filter_taps)
    base = peak_normalize(apply_filter(lpf, work), 1.0)
    quad = hilbert(base)

    n = np.arange(len(base))
    phase = 2.0 * np.pi * config.carrier_hz * n / config.working_rate_hz
    mixed = base.samples * np.cos(phase) - quad.samples * np.sin(phase)

    if len(base) >= 2:
        taper = tukey_window(WindowSpec(kind="tukey", alpha=config.tukey_alpha, length=len(base)))
        mixed = mixed * taper
    shifted = SampleBuffer(mixed, config.working_rate_hz)
    return peak_normalize(shifted, config.normalize_target)


#: Lengths whose FFT is slow: three primes, then 2*36011, 3*48017 and
#: 2**3*7*4481 (a 5.2 s clip).
AWKWARD_LENGTHS = (4801, 48017, 480019, 72022, 144051, 250936)


@pytest.mark.parametrize("n", AWKWARD_LENGTHS)
def test_fast_length_hilbert_stays_near_circular(n, default_config):
    # The two differ near the ends, where the circular transform wraps one
    # end onto the other and the padded one sees a zero gap. A 0.1 s clip
    # has 120-sample taper ramps, and measure's leakage there is set by the
    # truncation of its core, so its bounds are wider.
    seconds = n / RATE
    long_clip = seconds >= 1.0
    db_bound, hz_bound = (0.1, 1.0) if long_clip else (1.5, 11.0)
    cases = [
        (speech_like(duration_s=seconds, seed=7), 2e-3 if long_clip else 2e-2),
        (tone(700.0, duration_s=seconds), 2e-2),
    ]
    for signal, sample_bound in cases:
        assert len(signal) == n
        ref = _modulate_circular(signal, default_config)
        out = modulate(signal, default_config)
        assert np.max(np.abs(out.samples - ref.samples)) <= sample_bound

        m_ref, m_out = measure(ref, default_config), measure(out, default_config)
        assert abs(m_out.leakage_below_carrier_db - m_ref.leakage_below_carrier_db) <= db_bound
        if m_ref.sideband_suppression_db is None:
            assert m_out.sideband_suppression_db is None
        else:
            assert abs(m_out.sideband_suppression_db - m_ref.sideband_suppression_db) <= db_bound
        assert abs(m_out.occupancy_lo_hz - m_ref.occupancy_lo_hz) <= hz_bound
        assert abs(m_out.occupancy_hi_hz - m_ref.occupancy_hi_hz) <= hz_bound


@pytest.mark.parametrize("freq_hz", [50.0, 100.0, 300.0, 3000.0])
def test_fast_length_hilbert_edge_effect_falls_with_cycles(freq_hz, default_config):
    # An abruptly cut low tone moves most: by up to 1.5 / (cycles in the
    # clip), and by at most 2e-2 from 75 cycles on.
    for n in (4801, 48017):
        signal = tone(freq_hz, duration_s=n / RATE)
        ref = _modulate_circular(signal, default_config)
        out = modulate(signal, default_config)
        cycles = freq_hz * n / RATE
        assert np.max(np.abs(out.samples - ref.samples)) <= max(2e-2, 1.5 / cycles)
