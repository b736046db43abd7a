"""Shared fixtures: a deterministic synthetic audio corpus and oracles.

Oracles here are intentionally independent of the package internals:
single-frequency magnitudes come from a direct O(n) correlation, not any
FFT routine, so spectral claims are checked against a second code path.
``modulate_circular`` is the exception: a reference modulator built from
the package's kernels, for comparing variants of the pipeline.
"""

import threading

import numpy as np
import pytest

from ultraband import kernels
from ultraband import (
    ModulationConfig,
    SampleBuffer,
    apply_filter,
    design_lowpass,
    hilbert,
    modulate,
    peak_normalize,
    resample,
    tukey_window,
)

RATE = 48000.0


def dft_magnitude(x: np.ndarray, freq_hz: float, rate_hz: float) -> float:
    """Brute-force single-bin DFT magnitude (direct correlation)."""
    n = np.arange(x.size)
    angles = 2.0 * np.pi * freq_hz * n / rate_hz
    return float(np.hypot(np.dot(x, np.cos(angles)), np.dot(x, np.sin(angles))))


def modulate_circular(
    signal: SampleBuffer, config: ModulationConfig, arm: float = 1.0
) -> SampleBuffer:
    """The Hilbert-transform form of ``modulate``: a low-pass, then a circular
    Hilbert transform at the clip's own length. ``arm`` scales the quadrature
    arm; any other value than 1 is a broken single-sideband mixer that leaves
    part of the lower sideband."""
    work = resample(signal, config.working_rate_hz)
    lpf = design_lowpass(config.cutoff_hz, config.working_rate_hz, config.filter_taps)
    base = peak_normalize(apply_filter(lpf, work), 1.0)
    quad = hilbert(base)

    n = np.arange(len(base))
    phase = 2.0 * np.pi * config.carrier_hz * n / config.working_rate_hz
    mixed = base.samples * np.cos(phase) - arm * quad.samples * np.sin(phase)

    if len(base) >= 2:
        taper = tukey_window(len(base), config.tukey_alpha)
        mixed = mixed * taper
    shifted = SampleBuffer(mixed, config.working_rate_hz)
    return peak_normalize(shifted, config.normalize_target)


def ncc(a: np.ndarray, b: np.ndarray, trim: float = 0.05) -> float:
    """Zero-lag normalized cross-correlation over the central region."""
    n = min(a.size, b.size)
    lo, hi = int(n * trim), int(n * (1.0 - trim))
    x = a[lo:hi] - a[lo:hi].mean()
    y = b[lo:hi] - b[lo:hi].mean()
    denom = float(np.sqrt(np.dot(x, x) * np.dot(y, y)))
    return float(np.dot(x, y) / denom) if denom > 0.0 else 0.0


def speech_like(
    duration_s: float = 2.0,
    f0: float = 120.0,
    seed: int = 0,
    noise_level: float = 0.5,
    rate: float = RATE,
    syllable_hz: float = 4.0,
    pauses=(),
) -> SampleBuffer:
    """Deterministic speech-shaped test signal.

    A harmonic stack under a two-formant envelope, amplitude-modulated at a
    syllabic rate (never fully off), plus white noise standing in for
    fricatives so the spectrum stays busy out past the voiced harmonics.
    ``pauses`` is a list of (start_s, end_s) spans forced to true silence.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate

    sig = np.zeros(n)
    k_max = int(7800.0 // f0)
    for k in range(1, k_max + 1):
        f = k * f0
        formants = 1.0 / (1.0 + ((f - 500.0) / 400.0) ** 2) + 0.7 / (
            1.0 + ((f - 1800.0) / 600.0) ** 2
        )
        tilt = 1.0 / (1.0 + f / 1500.0)
        sig += (formants + 0.15) * tilt * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))

    envelope = 0.15 + 0.85 * 0.5 * (1.0 - np.cos(2.0 * np.pi * syllable_hz * t))
    out = sig * envelope / np.max(np.abs(sig))
    out += noise_level * rng.standard_normal(n) * np.max(np.abs(out)) * 0.3
    for start_s, end_s in pauses:
        out[int(start_s * rate) : int(end_s * rate)] = 0.0
    out = 0.8 * out / np.max(np.abs(out))
    return SampleBuffer(out, rate)


def tone(freq_hz: float, duration_s: float = 2.0, amp: float = 0.8, rate: float = RATE) -> SampleBuffer:
    t = np.arange(int(round(duration_s * rate))) / rate
    return SampleBuffer(amp * np.sin(2.0 * np.pi * freq_hz * t), rate)


def build_corpus() -> dict:
    rng = np.random.default_rng(99)
    n = int(2.0 * RATE)
    t = np.arange(n) / RATE

    chirp = 0.8 * np.sin(2.0 * np.pi * (100.0 * t + 0.5 * (5400.0 - 100.0) / 2.0 * t**2))
    white = 0.7 * rng.standard_normal(n)
    white /= np.max(np.abs(white))
    two_tone = 0.6 * np.sin(2.0 * np.pi * 440.0 * t) + 0.3 * np.sin(2.0 * np.pi * 1320.0 * t)

    return {
        "speech_low": speech_like(f0=110.0, seed=1),
        "speech_high": speech_like(f0=210.0, seed=2),
        "speech_fullband": speech_like(f0=130.0, seed=3, noise_level=2.5),
        "two_tone": SampleBuffer(two_tone, RATE),
        "chirp": SampleBuffer(chirp, RATE),
        "white_noise": SampleBuffer(0.7 * white, RATE),
    }


@pytest.fixture(scope="session")
def corpus() -> dict:
    return build_corpus()


#: Fixture name whose spectrum genuinely fills the whole speech band; used
#: for bandwidth and occupancy claims.
FULLBAND_NAME = "speech_fullband"


@pytest.fixture(scope="session")
def default_config() -> ModulationConfig:
    return ModulationConfig()


@pytest.fixture(scope="session")
def modulated_corpus(corpus, default_config) -> dict:
    return {name: modulate(sig, default_config) for name, sig in corpus.items()}


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread it started alive, such as a worker of
    ``kernels._framed`` that was not joined."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left alive: {left}"


@pytest.fixture(autouse=True)
def cold_resample_plans():
    """Start every test with no kept ``resample`` plan, so a memory or bit
    pin measures the design and not a plan an earlier test left."""
    kernels._resample_plan.cache_clear()
