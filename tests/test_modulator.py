"""Up-conversion pipeline: band placement, sideband purity, config plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import RATE, dft_magnitude, ncc, speech_like, tone
from ultraband import (
    ConfigInvalid,
    EmptySignal,
    IoFailure,
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    apply_filter,
    band_energy,
    demodulate,
    design_lowpass,
    load_config,
    measure,
    modulate,
    modulate_file,
    read_wav,
    to_pcm,
    write_wav,
)


def _central(buf: SampleBuffer, frac: float = 0.05) -> SampleBuffer:
    n = len(buf)
    edge = int(round(n * frac))
    return SampleBuffer(buf.samples[edge : n - edge], buf.sample_rate_hz)


def _image_db(out: SampleBuffer, f0: float, carrier_hz: float = 16000.0) -> float:
    # central 0.9 s slice keeps both probe frequencies on integer cycles
    rate, mid, half = out.sample_rate_hz, len(out) // 2, int(0.45 * out.sample_rate_hz)
    core = out.samples[mid - half : mid + half]
    lower = dft_magnitude(core, carrier_hz - f0, rate)
    return 20.0 * np.log10(lower / dft_magnitude(core, carrier_hz + f0, rate))


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
        ModulationConfig(**kwargs)


def test_config_defaults_valid():
    ModulationConfig()


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
    assert _image_db(modulate(tone(1000.0), default_config), 1000.0) <= -40.0


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


# --- the single-sideband filter ---


@pytest.mark.parametrize("rate", [48000.0, 96000.0])
@pytest.mark.parametrize("f0", [100.0, 300.0])
def test_low_tone_image_rejected(rate, f0):
    out = modulate(tone(f0, rate=rate), ModulationConfig(working_rate_hz=rate))
    assert _image_db(out, f0) <= -80.0


def test_just_below_carrier_is_quiet(modulated_corpus, default_config):
    # [fc - 500, fc), where baseband content near 0 Hz lands, as the
    # difference of two of measure's leakage readings
    def below(out, edge_hz):
        cfg = replace(default_config, carrier_hz=edge_hz + 500.0)
        return 10.0 ** (measure(out, cfg).leakage_below_carrier_db / 10.0)

    for name, out in modulated_corpus.items():
        assert 10.0 * np.log10(below(out, 16000.0) - below(out, 15500.0)) <= -70.0, name


@pytest.mark.parametrize("rate, floor", [(48000.0, 1023), (96000.0, 2047)])
def test_filter_taps_is_a_floor_on_the_length(rate, floor):
    signal = speech_like(duration_s=0.5, seed=5, rate=rate)
    pcm = {taps: to_pcm(modulate(signal, ModulationConfig(filter_taps=taps, working_rate_hz=rate)))
           for taps in (127, 255, floor, floor + 2)}
    assert pcm[127] == pcm[255] == pcm[floor] != pcm[floor + 2]


@pytest.mark.parametrize("cutoff_hz", [100.0, 50.0])
def test_cutoff_at_or_under_the_guard_edge_is_refused(cutoff_hz):
    cfg = ModulationConfig(cutoff_hz=cutoff_hz)
    with pytest.raises(ConfigInvalid):
        modulate(tone(1000.0), cfg)
    measure(tone(17000.0), cfg)  # measure still takes it


def test_round_trip_low_voice(default_config):
    # 90 Hz is the lowest f0 of the benchmark's speech clips
    signal = speech_like(f0=90.0, seed=4)
    lpf = design_lowpass(default_config.cutoff_hz, RATE, default_config.filter_taps)
    recovered = demodulate(modulate(signal, default_config))
    assert ncc(recovered.samples, apply_filter(lpf, signal).samples) >= 0.95
