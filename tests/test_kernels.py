"""DSP primitive tests with independent frequency-domain oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import RATE, dft_magnitude, tone
from ultraband import (
    BadAlpha,
    BadArgument,
    BadCutoff,
    BadRate,
    BadTaps,
    EmptySignal,
    FirFilter,
    RateMismatch,
    SampleBuffer,
    UltrabandError,
    apply_filter,
    design_lowpass,
    detect,
    embed,
    find_silence,
    hilbert,
    peak_normalize,
    resample,
    stft,
    tukey_window,
)
from ultraband.kernels import _OLA_BATCH, MAX_RESAMPLE_FACTOR, next_fast_len


def _freq_response(filt: FirFilter, freq_hz: float) -> float:
    # Direct evaluation of |H(f)|, no FFT involved.
    k = np.arange(filt.taps.size)
    w = 2.0 * np.pi * freq_hz / filt.design_rate_hz
    return float(abs(np.sum(filt.taps * np.exp(-1j * w * k))))


# --- design_lowpass ---


def test_lowpass_unit_dc_gain():
    filt = design_lowpass(6000.0, RATE, 255)
    assert filt.taps.sum() == pytest.approx(1.0, abs=1e-12)
    assert _freq_response(filt, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_lowpass_exact_symmetry():
    filt = design_lowpass(6000.0, RATE, 255)
    assert np.array_equal(filt.taps, filt.taps[::-1])
    assert filt.group_delay == 127


def test_lowpass_minus_6db_at_cutoff():
    filt = design_lowpass(6000.0, RATE, 255)
    assert _freq_response(filt, 6000.0) == pytest.approx(0.5, abs=0.01)


def test_lowpass_passband_flat():
    filt = design_lowpass(6000.0, RATE, 255)
    for f in (500.0, 1000.0, 3000.0, 5000.0):
        gain_db = 20.0 * np.log10(_freq_response(filt, f))
        assert abs(gain_db) < 0.2


def test_lowpass_stopband_rejection():
    filt = design_lowpass(6000.0, RATE, 255)
    for f in np.arange(7000.0, 24000.0, 500.0):
        assert 20.0 * np.log10(_freq_response(filt, f)) <= -40.0


@pytest.mark.parametrize("cutoff", [0.0, -100.0, 24000.0, 30000.0])
def test_lowpass_bad_cutoff(cutoff):
    with pytest.raises(BadCutoff):
        design_lowpass(cutoff, RATE, 255)


@pytest.mark.parametrize("taps", [2, 4, 1, -5, 6.5])
def test_lowpass_bad_taps(taps):
    with pytest.raises(BadTaps):
        design_lowpass(6000.0, RATE, taps)


def test_lowpass_bad_rate():
    with pytest.raises(BadRate):
        design_lowpass(6000.0, 0.0, 255)


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_lowpass_rejects_non_finite_rate(rate):
    # an infinite rate gave NaN taps, which passed the unit-sum check
    with pytest.raises(BadRate):
        design_lowpass(6000.0, rate, 255)


def test_lowpass_short_filter_warns(caplog):
    with caplog.at_level("WARNING", logger="ultraband.kernels"):
        design_lowpass(6000.0, RATE, 5)
    assert any("stopband" in r.message for r in caplog.records)


def test_firfilter_validates_construction():
    with pytest.raises(BadTaps):
        FirFilter(np.ones(4) / 4.0, 1000.0, RATE)  # even length
    with pytest.raises(BadTaps):
        FirFilter(np.ones(5), 1000.0, RATE)  # sum is 5, not 1
    with pytest.raises(BadTaps):
        FirFilter(np.full(5, np.nan), 1000.0, RATE)  # NaN sum is not 1 either


# --- next_fast_len ---


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len  # test-time reference

    big = np.random.default_rng(17).integers(100_001, 10**12, 2000).tolist()
    for n in [*range(1, 100_001), 14_400_017, *big]:
        assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n


# --- apply_filter ---


def test_filter_preserves_length_and_alignment():
    filt = design_lowpass(6000.0, RATE, 255)
    x = np.zeros(4096)
    x[2000] = 1.0
    out = apply_filter(filt, SampleBuffer(x, RATE))
    assert len(out) == 4096
    assert int(np.argmax(np.abs(out.samples))) == 2000


def _filter_cases():
    """(taps, n): the first four at 255 taps, then for each tap count the
    lengths one below, at and one above the first two overlap-add block
    edges and the edge of the first batch of blocks."""
    cases = [pytest.param(255, n, id=str(n)) for n in (1, 254, 4097, 48000)]
    for taps in (3, 31, 255, 1023):
        step = next_fast_len(8 * taps) - taps + 1
        for edge in (step, 2 * step, _OLA_BATCH * step):
            cases += [pytest.param(taps, n, id=f"{taps}taps-{n}") for n in (edge - 1, edge, edge + 1)]
    return cases


@pytest.mark.parametrize("taps, n", _filter_cases())
def test_filter_matches_direct_convolution(taps, n):
    # overlap-add vs the direct-form sum; inputs span the demodulator's 2x range
    filt = design_lowpass(6000.0, RATE, taps)
    x = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    direct = np.convolve(x, filt.taps)[filt.group_delay : filt.group_delay + n]
    out = apply_filter(filt, SampleBuffer(x, RATE))
    assert np.max(np.abs(out.samples - direct)) <= 1e-13


def test_filter_passes_low_tone_rejects_high_tone():
    filt = design_lowpass(6000.0, RATE, 255)
    low = apply_filter(filt, tone(1000.0))
    high = apply_filter(filt, tone(15000.0))
    core = slice(4800, -4800)
    a_low = dft_magnitude(low.samples[core], 1000.0, RATE)
    a_high = dft_magnitude(high.samples[core], 15000.0, RATE)
    assert 20.0 * np.log10(a_high / a_low) <= -40.0


def test_filter_rate_mismatch():
    filt = design_lowpass(6000.0, RATE, 255)
    with pytest.raises(RateMismatch):
        apply_filter(filt, SampleBuffer(np.zeros(100), 44100.0))


def test_filter_empty_passthrough():
    filt = design_lowpass(6000.0, RATE, 255)
    out = apply_filter(filt, SampleBuffer(np.zeros(0), RATE))
    assert len(out) == 0


# --- hilbert ---


def test_hilbert_cosine_to_sine():
    # integer number of periods keeps the DFT exact
    n = 48000
    t = np.arange(n) / RATE
    out = hilbert(SampleBuffer(np.cos(2.0 * np.pi * 1000.0 * t), RATE))
    assert np.max(np.abs(out.samples - np.sin(2.0 * np.pi * 1000.0 * t))) < 1e-6


def test_hilbert_of_constant_is_zero():
    out = hilbert(SampleBuffer(np.full(1024, 0.7), RATE))
    assert np.max(np.abs(out.samples)) < 1e-9


def test_hilbert_involution():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4097)  # odd length: no Nyquist bin
    x -= x.mean()
    twice = hilbert(hilbert(SampleBuffer(x, RATE)))
    assert np.max(np.abs(twice.samples + x)) < 1e-6


def test_hilbert_preserves_energy_of_zero_mean():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4097)
    x -= x.mean()
    out = hilbert(SampleBuffer(x, RATE))
    e_in = float(np.dot(x, x))
    e_out = float(np.dot(out.samples, out.samples))
    assert abs(e_out - e_in) / e_in < 1e-6


def test_hilbert_empty():
    with pytest.raises(EmptySignal):
        hilbert(SampleBuffer(np.zeros(0), RATE))


def _hilbert_complex_fft(x: np.ndarray) -> np.ndarray:
    """The earlier complex-FFT analytic signal: negative bins zeroed,
    positive bins doubled, DC and Nyquist at unit weight."""
    n = x.size
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1 : n // 2] = 2.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(np.fft.fft(x) * weights).imag


@pytest.mark.parametrize("n", [1, 2, 3, 16, 4096, 4097, 4801, 48017, 72022])
def test_hilbert_matches_complex_fft_form(n):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    out = hilbert(SampleBuffer(x, RATE))
    assert len(out) == n
    assert np.max(np.abs(out.samples - _hilbert_complex_fft(x))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(33, 257).filter(lambda n: n % 2 == 1),
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    )
)
def test_hilbert_involution_property(x):
    x = x - x.mean()
    if np.max(np.abs(x)) < 1e-3:
        return
    twice = hilbert(hilbert(SampleBuffer(x, RATE)))
    assert np.max(np.abs(twice.samples + x)) < 1e-6


# --- tukey_window ---


def test_tukey_alpha_zero_is_rectangular():
    assert tukey_window(8, 0.0).tolist() == [1.0] * 8


def test_tukey_alpha_one_is_hann():
    w = tukey_window(512, 1.0)
    assert np.max(np.abs(w - np.hanning(512))) < 1e-12


def test_tukey_long_window_shape():
    w = tukey_window(48000, 0.05)
    assert w[0] == 0.0
    assert w[-1] == 0.0
    assert w[24000] == 1.0


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.05, 0.3, 0.9, 1.0])
def test_tukey_values_bounded(alpha):
    w = tukey_window(1001, alpha)
    assert w.min() >= 0.0
    assert w.max() <= 1.0


def test_tukey_bad_alpha():
    with pytest.raises(BadAlpha):
        tukey_window(64, 1.5)
    with pytest.raises(BadAlpha):
        tukey_window(64, -0.1)


def test_tukey_bad_length_and_kind():
    with pytest.raises(ValueError):
        tukey_window(1, 0.5)


# --- peak_normalize ---


def test_normalize_simple():
    out = peak_normalize(SampleBuffer(np.array([0.5, -0.25]), RATE), 1.0)
    assert out.samples.tolist() == [1.0, -0.5]


def test_normalize_zero_unchanged():
    out = peak_normalize(SampleBuffer(np.zeros(16), RATE), 1.0)
    assert np.max(np.abs(out.samples)) == 0.0


def test_normalize_arbitrary_target():
    rng = np.random.default_rng(13)
    out = peak_normalize(SampleBuffer(rng.standard_normal(500), RATE), 0.891)
    assert np.max(np.abs(out.samples)) == pytest.approx(0.891, abs=1e-9)


@pytest.mark.parametrize("target", [0.0, -0.5, 1.5])
def test_normalize_bad_target(target):
    with pytest.raises(ValueError):
        peak_normalize(SampleBuffer(np.ones(4), RATE), target)


@pytest.mark.parametrize("peak", [2.22507386e-311, 5e-324, 1e-308])
def test_normalize_subnormal_peak(peak):
    out = peak_normalize(SampleBuffer(np.array([peak, -peak / 2.0, 0.0]), RATE), 0.5)
    assert np.max(np.abs(out.samples)) == pytest.approx(0.5, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 200), elements=st.floats(-100.0, 100.0, allow_nan=False)),
    st.floats(0.01, 1.0),
)
def test_normalize_property(x, target):
    out = peak_normalize(SampleBuffer(x, RATE), target)
    if np.max(np.abs(x)) == 0.0:
        assert np.max(np.abs(out.samples)) == 0.0
    else:
        assert np.max(np.abs(out.samples)) == pytest.approx(target, rel=1e-9)


# --- resample ---


def test_resample_same_rate_identity():
    x = SampleBuffer(np.arange(100, dtype=float), RATE)
    out = resample(x, RATE)
    assert np.array_equal(out.samples, x.samples)


def test_resample_tone_amplitude_preserved():
    t = np.arange(int(2 * 44100)) / 44100.0
    x = SampleBuffer(0.8 * np.sin(2.0 * np.pi * 1000.0 * t), 44100.0)
    out = resample(x, 48000.0)
    assert out.sample_rate_hz == 48000.0
    core = out.samples[4800:-4800]
    amp = dft_magnitude(core, 1000.0, 48000.0) / (core.size / 2.0)
    assert abs(20.0 * np.log10(amp / 0.8)) < 0.5


def test_resample_silence_upsample():
    out = resample(SampleBuffer(np.zeros(8000), 8000.0), 48000.0)
    assert out.sample_rate_hz == 48000.0
    assert np.max(np.abs(out.samples)) == 0.0


def test_resample_empty_to_another_rate():
    out = resample(SampleBuffer(np.zeros(0), 44100.0), 48000.0)
    assert len(out) == 0
    assert out.sample_rate_hz == 48000.0


def test_resample_bad_rate():
    with pytest.raises(BadRate):
        resample(SampleBuffer(np.zeros(10), RATE), 0.0)


def test_resample_uses_exact_ratio():
    # 44056 -> 48000 reduces to 6000/5507; a ratio rounded to a denominator
    # of at most 1000 (1071/983) comes out one sample short over 60 s
    out = resample(SampleBuffer(np.zeros(44056 * 60), 44056.0), 48000.0)
    assert len(out) == 48000 * 60


def test_resample_rejects_factor_over_bound():
    # 48000 -> 96001 reduces to 96001/48000, above MAX_RESAMPLE_FACTOR
    assert 96001 > MAX_RESAMPLE_FACTOR
    with pytest.raises(BadRate):
        resample(SampleBuffer(np.zeros(10), 48000.0), 96001.0)


@pytest.mark.parametrize(
    "old, new", [(RATE, math.inf), (RATE, math.nan), (RATE, -math.inf), (math.inf, RATE)]
)
def test_resample_rejects_non_finite_rate(old, new):
    # an infinite rate used to escape as OverflowError from the exact ratio
    with pytest.raises(BadRate):
        resample(SampleBuffer(np.zeros(10), old), new)


def test_resample_factor_message_names_rates_and_bound():
    # 1e300 / 48000 reduces to a 300-digit fraction, which the message used to print
    with pytest.raises(BadRate) as info:
        resample(SampleBuffer(np.zeros(10), 48000.0), 1e300)
    message = str(info.value)
    assert "48000.0" in message and "1e+300" in message
    assert f"MAX_RESAMPLE_FACTOR = {MAX_RESAMPLE_FACTOR}" in message
    assert len(message) < 200


# --- argument errors ---


_SIG = SampleBuffer(np.zeros(4800), RATE)
_HOST = SampleBuffer(np.zeros(48000), RATE)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tukey_window(1, 0.5),
        lambda: peak_normalize(_SIG, 2.0),
        lambda: detect(_SIG, ratio_threshold=0.0),
        lambda: detect(_SIG, sustain_ms=0.0),
        lambda: stft(_SIG, frame_len=8, hop=4),
        lambda: stft(_SIG, frame_len=64, hop=0),
        lambda: find_silence(_HOST, rms_threshold=0.0),
        lambda: find_silence(_HOST, frame_ms=0.0),
        lambda: embed(_HOST, tone(18000.0, 0.1), find_silence(_HOST), gain=2.0),
    ],
    ids=[
        "tukey_length_1", "normalize_target", "detect_ratio", "detect_sustain",
        "stft_frame_len", "stft_hop", "silence_threshold", "silence_frame", "embed_gain",
    ],
)
def test_bad_argument_is_ultraband_error(call):
    with pytest.raises(BadArgument) as err:
        call()
    assert isinstance(err.value, UltrabandError)
    assert isinstance(err.value, ValueError)
