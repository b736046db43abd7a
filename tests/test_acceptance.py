"""Acceptance gate: one test per release criterion, strictest tolerances.

Run ``pytest -v tests/test_acceptance.py`` for a one-line verdict per
criterion. Oracles are independent of the code under test wherever the
claim is spectral: single-bin magnitudes come from direct correlation
(conftest.dft_magnitude), never from the package's own FFT paths.
"""

import time

import numpy as np
import pytest

from conftest import (
    FULLBAND_NAME,
    RATE,
    build_corpus,
    dft_magnitude,
    modulate_circular,
    ncc,
    speech_like,
    tone,
)
from ultraband import (
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    aggregate_survey,
    apply_filter,
    band_energy,
    demodulate,
    design_lowpass,
    detect,
    embed,
    find_silence,
    hilbert,
    load_catalog,
    load_survey,
    measure,
    modulate,
    pair_defense,
    read_wav,
    recovered_bandwidth,
    tukey_window,
    write_wav,
)


def test_c1_band_confinement(corpus, default_config):
    out = modulate(corpus[FULLBAND_NAME], default_config)
    metrics = measure(out, default_config)
    assert 15800.0 <= metrics.occupancy_lo_hz, metrics
    assert metrics.occupancy_hi_hz <= 22200.0, metrics
    assert metrics.leakage_below_carrier_db <= -40.0, metrics

    ten_seconds = speech_like(duration_s=10.0, seed=77)
    start = time.perf_counter()
    modulate(ten_seconds, default_config)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("arm", [0.0, 0.5])
def test_c1_catches_a_broken_quadrature_arm(corpus, default_config, arm):
    # The image keeps (1 - arm)^2 / (1 + arm)^2 of the wanted sideband's
    # energy: half the total without the arm (-3 dB), a tenth at half
    # amplitude (-10 dB). Baseband energy within 500 Hz of DC lands within
    # 500 Hz of the carrier and is not counted, so the reading is lower.
    out = modulate_circular(corpus[FULLBAND_NAME], default_config, arm)
    leakage = measure(out, default_config).leakage_below_carrier_db
    image = (1.0 - arm) ** 2
    expected_db = 10.0 * np.log10(image / (image + (1.0 + arm) ** 2))
    assert expected_db - 1.5 <= leakage <= expected_db
    assert leakage > -40.0  # so C1 fails


def test_c2_lower_sideband_elimination(default_config):
    for f0 in (500.0, 1000.0, 2000.0, 4000.0, 5500.0):
        out = modulate(tone(f0), default_config)
        # central 0.9 s window keeps every probe on an integer cycle count
        n = len(out)
        half = int(0.45 * RATE)
        core = out.samples[n // 2 - half : n // 2 + half]
        upper = dft_magnitude(core, default_config.carrier_hz + f0, RATE)
        lower = dft_magnitude(core, default_config.carrier_hz - f0, RATE)
        assert 20.0 * np.log10(lower / upper) <= -40.0, f0


def test_c3_reversibility(corpus, modulated_corpus, default_config):
    lpf = design_lowpass(default_config.cutoff_hz, RATE, default_config.filter_taps)
    for name, signal in corpus.items():
        recovered = demodulate(modulated_corpus[name])
        reference = apply_filter(lpf, signal)
        score = ncc(recovered.samples, reference.samples)
        assert score >= 0.95, (name, score)

    bandwidth = recovered_bandwidth(demodulate(modulated_corpus[FULLBAND_NAME]))
    assert 5000.0 <= bandwidth <= 6500.0, bandwidth


def test_c1_c3_at_prime_length(default_config):
    # Every corpus clip above has a fast FFT length (96000), so modulate's
    # padded Hilbert path is a no-op there; 96001 is prime.
    n = 96001
    seconds = n / RATE
    signal = speech_like(f0=130.0, seed=3, noise_level=2.5, duration_s=seconds)
    out = modulate(signal, default_config)
    metrics = measure(out, default_config)
    assert 15800.0 <= metrics.occupancy_lo_hz, metrics
    assert metrics.occupancy_hi_hz <= 22200.0, metrics
    assert metrics.leakage_below_carrier_db <= -40.0, metrics

    for f0 in (500.0, 1000.0, 2000.0, 4000.0, 5500.0):
        shifted = modulate(tone(f0, duration_s=seconds), default_config)
        half = int(0.45 * RATE)
        core = shifted.samples[n // 2 - half : n // 2 + half]
        upper = dft_magnitude(core, default_config.carrier_hz + f0, RATE)
        lower = dft_magnitude(core, default_config.carrier_hz - f0, RATE)
        assert 20.0 * np.log10(lower / upper) <= -40.0, f0

    lpf = design_lowpass(default_config.cutoff_hz, RATE, default_config.filter_taps)
    score = ncc(demodulate(out).samples, apply_filter(lpf, signal).samples)
    assert score >= 0.95, score


def test_c4_survey_arithmetic():
    totals = aggregate_survey(load_survey())
    nuit = totals.nuit
    assert (nuit.fail_n, nuit.trigger_n, nuit.success_n) == (8, 13, 29)
    assert (nuit.fail_pct, nuit.trigger_pct, nuit.success_pct) == (16, 26, 58)
    original = totals.original
    assert (original.fail_n, original.trigger_n, original.success_n) == (0, 0, 50)
    assert original.success_pct == 100


def test_c5_catalog_fidelity():
    entries = load_catalog()
    assert len(entries) == 20

    drive_by = pair_defense("T1189", entries)[0]
    assert drive_by.defend_technique_id == "D3-T1023"
    assert drive_by.defend_technique_name == "Security Awareness Training"

    valid_accounts = pair_defense("T1078", entries)[0]
    assert valid_accounts.defend_technique_id == "D3-T1021"
    assert valid_accounts.defend_technique_name == "User Account Management"

    input_capture = pair_defense("T1056", entries)[0]
    assert input_capture.defend_technique_id == "D3-T1023"
    assert input_capture.defend_technique_name == "Security Awareness Training"


def _detector_corpus(config: ModulationConfig):
    """10 clean clips and 10 clips carrying high-band content (gain >= 0.25)."""
    rng = np.random.default_rng(2024)
    n = int(2.0 * RATE)
    t = np.arange(n) / RATE

    def normed(x, peak=0.8):
        return SampleBuffer(peak * x / np.max(np.abs(x)), RATE)

    pink = np.cumsum(rng.standard_normal(n))
    pink -= pink.mean()
    chord = sum(np.sin(2.0 * np.pi * f * t) for f in (220.0, 277.2, 329.6, 440.0))
    chord *= 0.4 + 0.3 * (1.0 - np.cos(2.0 * np.pi * 2.0 * t))

    clean = {
        "speech_a": speech_like(seed=11, f0=115.0),
        "speech_b": speech_like(seed=12, f0=205.0),
        "speech_noisy": speech_like(seed=13, f0=150.0, noise_level=2.5),
        "two_tone": SampleBuffer(
            0.6 * np.sin(2.0 * np.pi * 440.0 * t) + 0.3 * np.sin(2.0 * np.pi * 1320.0 * t), RATE
        ),
        "chirp": normed(np.sin(2.0 * np.pi * (100.0 * t + 1325.0 * t**2))),
        "white_noise": normed(rng.standard_normal(n), 0.7),
        "pink_noise": normed(pink, 0.7),
        "paused_speech": speech_like(duration_s=4.0, seed=14, pauses=[(1.0, 3.0)]),
        "tone_5k": tone(5000.0),
        "chord": normed(chord),
    }

    payload = modulate(speech_like(duration_s=1.5, f0=140.0, seed=50), config)

    def embedded(host, gain):
        return embed(host, payload, find_silence(host), gain=gain)

    def gap_host(seed):
        return speech_like(duration_s=4.0, f0=125.0, seed=seed, pauses=[(1.0, 3.2)])

    attack = {
        "mod_speech_a": modulate(clean["speech_a"], config),
        "mod_speech_b": modulate(clean["speech_b"], config),
        "mod_noisy": modulate(clean["speech_noisy"], config),
        "mod_two_tone": modulate(clean["two_tone"], config),
        "mod_chirp": modulate(clean["chirp"], config),
        "embed_gain_025": embedded(gap_host(21), 0.25),
        "embed_gain_05": embedded(gap_host(22), 0.5),
        "embed_gain_10": embedded(gap_host(23), 1.0),
        "embed_silent_host": embedded(SampleBuffer(np.zeros(int(4 * RATE)), RATE), 0.25),
        "embed_roomtone": embedded(
            SampleBuffer(0.004 * rng.standard_normal(int(4 * RATE)), RATE), 0.4
        ),
    }
    return clean, attack, payload


def test_c6_detector_discrimination(default_config):
    clean, attack, payload = _detector_corpus(default_config)
    assert len(clean) == 10 and len(attack) == 10

    false_positives = [name for name, sig in clean.items() if detect(sig).flagged]
    false_negatives = [name for name, sig in attack.items() if not detect(sig).flagged]
    assert false_positives == []
    assert false_negatives == []

    host = speech_like(duration_s=4.0, f0=125.0, seed=30, pauses=[(1.0, 3.2)])
    silence = find_silence(host)
    scores = [
        detect(embed(host, payload, silence, gain=g)).score for g in (0.1, 0.25, 0.5, 1.0)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:])), scores


def test_c7_stego_transparency_and_locality(default_config):
    host = speech_like(duration_s=4.0, seed=26, pauses=[(1.0, 3.2)])
    payload = modulate(speech_like(duration_s=1.5, f0=140.0, seed=50), default_config)
    silence = find_silence(host)
    start, _ = silence.longest()
    out = embed(host, payload, silence, gain=0.5)

    e_host = band_energy(host, 0.0, 15500.0)
    e_out = band_energy(out, 0.0, 15500.0)
    assert abs(10.0 * np.log10(e_out / e_host)) <= 0.1

    span = np.arange(start, start + len(payload))
    assert np.array_equal(np.delete(out.samples, span), np.delete(host.samples, span))

    assert detect(out).flagged


def test_c8_numerical_kernel_suite(tmp_path):
    # Parseval: frequency-domain band energy equals time-domain energy
    rng = np.random.default_rng(88)
    for n in (4096, 4097, 48000):
        x = rng.standard_normal(n)
        sig = SampleBuffer(x, RATE)
        assert band_energy(sig, 0.0, RATE / 2.0) == pytest.approx(
            float(np.dot(x, x)), rel=1e-9
        )

    # Hilbert identities
    t = np.arange(48000) / RATE
    sine_err = hilbert(SampleBuffer(np.cos(2.0 * np.pi * 1000.0 * t), RATE))
    assert np.max(np.abs(sine_err.samples - np.sin(2.0 * np.pi * 1000.0 * t))) < 1e-6
    z = rng.standard_normal(4097)
    z -= z.mean()
    twice = hilbert(hilbert(SampleBuffer(z, RATE)))
    assert np.max(np.abs(twice.samples + z)) < 1e-6

    # Tukey degenerate shapes
    assert np.array_equal(tukey_window(64, 0.0), np.ones(64))
    assert np.max(np.abs(tukey_window(512, 1.0) - np.hanning(512))) < 1e-12

    # WAV container: byte-exact round trip on 100 random clips
    for i in range(100):
        channels = int(rng.integers(1, 3))
        frames = int(rng.integers(1, 2000))
        samples = rng.integers(-32768, 32768, frames * channels).astype(np.int16)
        rate = int(rng.choice([8000, 16000, 22050, 44100, 48000]))
        clip = PcmClip(samples, rate, channels)
        path = tmp_path / f"clip_{i}.wav"
        write_wav(path, clip)
        assert read_wav(path) == clip
