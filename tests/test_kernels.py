"""DSP primitive tests with independent frequency-domain oracles."""

import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import RATE, dft_magnitude, tone
from ultraband import kernels
from ultraband import (
    BadAlpha,
    BadArgument,
    BadCutoff,
    BadRate,
    BadTaps,
    EmptySignal,
    FirFilter,
    PcmClip,
    RateMismatch,
    SampleBuffer,
    UltrabandError,
    apply_filter,
    design_lowpass,
    detect,
    embed,
    find_silence,
    hilbert,
    open_wav,
    peak_normalize,
    resample,
    stft,
    to_float,
    tukey_window,
    write_wav,
)
from ultraband.kernels import (_FFT_POINTS, MAX_RESAMPLE_FACTOR, _carrier, _mix, _overlap_add,
                               _taper, check_positive, next_fast_len, resampled_length)


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


@pytest.mark.parametrize("taps", [2, 4, 1, -5, 6.5, math.inf, math.nan])
def test_lowpass_bad_taps(taps):
    # inf used to raise OverflowError and nan a bare ValueError
    with pytest.raises(BadTaps):
        design_lowpass(6000.0, RATE, taps)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_check_positive_rejects(value):
    with pytest.raises(BadArgument, match=f"^x {value} must be positive and finite$"):
        check_positive(value, BadArgument, "x")


def test_check_positive_accepts_every_positive_finite_value():
    for value in (5e-324, 1, 1.5, 1e308):
        check_positive(value, BadArgument, "x")


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


def _block_edges(taps: int, rows: int) -> tuple:
    """Frames in one and in two ``_framed`` blocks of the filter at ``taps``
    taps and ``rows`` tap rows, and at its split threshold (``_splits``: two
    runs of ``_FFT_POINTS`` FFT points)."""
    points = next_fast_len(8 * taps) * rows
    per_block = max(1, kernels._BLOCK_SAMPLES // (2 * points))
    return per_block, 2 * per_block, -(-2 * _FFT_POINTS // points)


def _filter_cases():
    """(taps, n): the first four at 255 taps, then for each tap count the
    lengths one below, at and one above the first two frame edges, the edge
    of 64 frames, of the frames in ``_FFT_POINTS`` points (half the split
    threshold at one row), and of one block, two blocks and the split
    threshold for one row of taps and for two."""
    cases = [pytest.param(255, n, id=str(n)) for n in (1, 254, 4097, 48000)]
    for taps in (3, 31, 255, 1023):
        n_fft = next_fast_len(8 * taps)
        step = n_fft - taps + 1
        frames = {1, 2, 64, _FFT_POINTS // n_fft} | {*_block_edges(taps, 1), *_block_edges(taps, 2)}
        for edge in sorted(f * step for f in frames):
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
    # rows of taps share each frame's FFT, in blocks of half the frames; each keeps its bits
    rows = _overlap_add(SampleBuffer(x, RATE), np.stack([filt.taps, 2.0 * filt.taps]))
    assert np.array_equal(rows, [out.samples, 2.0 * out.samples])


@pytest.mark.parametrize("shape, pairs", [((31,), 0), ((2, 31), 0), ((2, 31), 1), ((2, 31), 2)],
                         ids=["1-D", "two-rows", "two-rows-one-pair", "two-rows-two-pairs"])
def test_filter_returns_a_list_of_separate_rows(shape, pairs):
    # one row per pair of output tables, else per tap row; no two rows share
    # memory, not even through the arrays they are views of, so a kept row
    # keeps no other alive
    rng = np.random.default_rng(pairs)
    n, taps = 3000, rng.uniform(-1.0, 1.0, shape)
    cos, sin = _carrier(16000.0, RATE, n)
    mix_out = ((cos, -sin), (sin, cos))[:pairs]
    out = _overlap_add(SampleBuffer(rng.uniform(-1.0, 1.0, n), RATE), taps, mix_out=mix_out)
    assert isinstance(out, list) and len(out) == (pairs or np.atleast_2d(taps).shape[0])
    assert all(row.shape == (n,) for row in out)
    owners = [row if row.base is None else row.base for row in out]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(owners) for b in owners[i + 1 :])


def _split_cases():
    """(taps, rows, n): for one and two tap rows, lengths of one frame below,
    at and one above the split threshold (two runs of ``_FFT_POINTS`` points)."""
    cases = []
    for taps, rows in ((255, 1), (255, 2), (1023, 2)):
        step = next_fast_len(8 * taps) - taps + 1
        threshold = _block_edges(taps, rows)[2]
        cases += [pytest.param(taps, rows, b * step, id=f"{taps}taps-{rows}rows-{b}blocks")
                  for b in (threshold - 1, threshold, threshold + 1)]
    return cases


def _on_cpus(monkeypatch, cpus, x, taps):
    """``_overlap_add`` of the samples ``x`` with ``taps`` on ``cpus`` CPUs,
    and the number of threads the call started."""
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    started, start = [], threading.Thread.start
    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        return _overlap_add(SampleBuffer(x, RATE), taps), len(started)


@pytest.mark.parametrize("taps, rows, n", _split_cases())
def test_split_filter_equals_one_cpu_at_the_threshold(monkeypatch, taps, rows, n):
    filt = design_lowpass(6000.0, RATE, taps)
    x = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    stacked = np.stack([filt.taps, 2.0 * filt.taps])[:rows] if rows == 2 else filt.taps
    one, started_one = _on_cpus(monkeypatch, 1, x, stacked)
    two, started_two = _on_cpus(monkeypatch, 2, x, stacked)
    n_fft = next_fast_len(8 * taps)
    assert started_one == 0
    # one worker at most, and only from the threshold on
    assert started_two == (-(-n // (n_fft - taps + 1)) * n_fft * rows >= 2 * _FFT_POINTS)
    assert np.array_equal(one, two)


@pytest.mark.parametrize("taps, n", _filter_cases())
def test_filter_on_two_cpus_equals_one(monkeypatch, taps, n):
    filt = design_lowpass(6000.0, RATE, taps)
    x = np.random.default_rng(n).uniform(-2.0, 2.0, n)
    n_fft = next_fast_len(8 * taps)
    frames = -(-n // (n_fft - taps + 1))
    for stacked in (filt.taps, np.stack([filt.taps, 2.0 * filt.taps])):
        one = _on_cpus(monkeypatch, 1, x, stacked)[0]
        assert np.array_equal(one, _on_cpus(monkeypatch, 2, x, stacked)[0])
        # blocks of three frames, and the worker from two blocks on: it takes
        # every other block, and each block's first frame adds the carried tail
        with monkeypatch.context() as m:
            points = n_fft * len(np.atleast_2d(stacked))
            m.setattr(kernels, "_BLOCK_SAMPLES", 6 * points)
            m.setattr(kernels, "_FFT_POINTS", 3 * points)
            small, started = _on_cpus(m, 2, x, stacked)
        assert np.array_equal(small, one)
        assert started == (frames >= 6)


def test_filter_overflow_is_bad_argument():
    # the output is adopted without a copy, so its own finiteness check must stay
    filt = design_lowpass(6000.0, RATE, 255)
    x = np.full(4800, 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BadArgument, match="finite"):
        apply_filter(filt, SampleBuffer(x, RATE))


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


def _tukey_linspace(length, alpha):
    # the window's defining formula over the whole of linspace(0, 1, length)
    x = np.linspace(0.0, 1.0, length)
    w = np.ones(length)
    if alpha == 0.0:
        return w
    rising = x < alpha / 2
    falling = x > 1.0 - alpha / 2
    w[rising] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * x[rising] / alpha - 1.0)))
    w[falling] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * x[falling] / alpha - 2.0 / alpha + 1.0)))
    return w


@pytest.mark.parametrize("n", [2, 3, 17, 48017, 480000])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2, 1.0])
def test_taper_in_place_is_bit_identical_to_the_window(n, alpha):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    w = tukey_window(n, alpha)
    assert np.array_equal(w, _tukey_linspace(n, alpha))
    tapered = x.copy()
    _taper(tapered, alpha)
    assert np.array_equal(tapered, x * w)


def test_tukey_bad_alpha():
    with pytest.raises(BadAlpha):
        tukey_window(64, 1.5)
    with pytest.raises(BadAlpha):
        tukey_window(64, -0.1)


def test_tukey_bad_length_and_kind():
    with pytest.raises(ValueError):
        tukey_window(1, 0.5)


# --- carrier tables ---

# (carrier, rate, period in samples); 15999.7 Hz is a binary fraction whose
# period is far longer than any signal
_CARRIERS = [(16000.0, 48000.0, 3), (19000.0, 48000.0, 48), (16000.0, 44100.0, 441),
             (20000.0, 96000.0, 24), (15999.7, 48000.0, None)]


@pytest.mark.parametrize("freq, rate, q", _CARRIERS)
def test_carrier_mix_matches_the_per_sample_carrier(freq, rate, q):
    n = int(10 * rate)
    x = np.random.default_rng(int(freq)).uniform(-1.0, 1.0, n)
    cos, sin = _carrier(freq, rate, n)
    assert cos.size == (n if q is None else -(-4096 // q) * q)
    phase = 2.0 * np.pi * freq * np.arange(n) / rate
    # the per-sample form's own phase error reaches 1.8e-10 at 10 s
    assert np.max(np.abs(_mix(x, cos, np.empty(n)) - x * np.cos(phase))) <= 3e-10
    assert np.max(np.abs(_mix(x, sin, np.empty(n)) - x * np.sin(phase))) <= 3e-10


@pytest.mark.parametrize("freq, rate, q", _CARRIERS[:4])
def test_mix_reads_the_table_cyclically(freq, rate, q):
    cos, sin = _carrier(freq, rate, 1 << 20)
    m = cos.size
    for n in (1, q - 1, q, q + 1, 4000, 3 * m + q + 1):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        out = np.empty(n)
        assert _mix(x, sin, out) is out
        assert np.array_equal(out, x * sin[np.arange(n) % m])
        short_cos, _ = _carrier(freq, rate, n)  # a short signal gets its own length
        assert short_cos.size == min(n, m)
        assert np.array_equal(short_cos, cos[: short_cos.size])


def test_carrier_phase_is_exact_at_any_length():
    # sample 172799999 is the last of 60 min at 48 kHz; 2*pi*f*k/r is 2.6e-8 off there
    n = 60 * 60 * 48000
    k = n - 1
    cos, sin = _carrier(16000.0, 48000.0, n)
    assert abs(cos[k % cos.size] - math.cos(2.0 * math.pi * (k % 3) / 3)) <= 1e-15
    assert abs(sin[k % sin.size] - math.sin(2.0 * math.pi * (k % 3) / 3)) <= 1e-15


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
    # rates equal within 1e-9: the frozen samples are shared, not copied
    x = SampleBuffer(np.arange(100, dtype=float), RATE)
    out = resample(x, RATE * (1.0 + 1e-12))
    assert np.array_equal(out.samples, x.samples) and np.shares_memory(out.samples, x.samples)
    assert out.sample_rate_hz == RATE * (1.0 + 1e-12)


@pytest.mark.parametrize("old, new", [(44100, 48000.0), (16000, 48000.0), (48000, 48000.0)])
def test_resample_reads_pcm_and_wav_spans_as_to_float(tmp_path, old, new):
    # channel 0 of a stereo clip, and of its file held open, read whole by _read
    pcm = PcmClip(np.random.default_rng(old).integers(-32768, 32768, 2 * old // 10), old, 2)
    write_wav(tmp_path / "in.wav", pcm)
    expected = resample(to_float(pcm), new)
    with open_wav(tmp_path / "in.wav") as wav:
        for got in (resample(pcm, new), resample(wav, new)):
            assert np.array_equal(got.samples, expected.samples)
            assert got.sample_rate_hz == expected.sample_rate_hz == new


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
    for n in (10, 0):  # at any length, and the length rule agrees
        with pytest.raises(BadRate):
            resample(SampleBuffer(np.zeros(n), 48000.0), 96001.0)
        with pytest.raises(BadRate):
            resampled_length(SampleBuffer(np.zeros(n), 48000.0), 96001.0)


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


def _resample_cases():
    for old, new in [(8000, 48000), (16000, 48000), (22050, 48000), (44100, 48000),
                     (96000, 48000), (48000, 44100), (96000, 8000), (48000, 48000),
                     (22050, 96000), (480, 48000)]:
        up = Fraction(new, old).numerator
        for n in sorted({1, 2, up - 1, up, up + 1, int(0.3 * old), 4 * old} - {0}):
            yield pytest.param(float(old), float(new), n, id=f"{old}-{new}-{n}")


@pytest.mark.parametrize("old, new, n", _resample_cases())
def test_resample_matches_resample_poly(old, new, n):
    from scipy.signal import resample_poly  # test-time reference

    ratio = Fraction(new) / Fraction(old)
    x = SampleBuffer(np.random.default_rng(n).standard_normal(n), old)
    out = resample(x, new)
    ref = resample_poly(x.samples, ratio.numerator, ratio.denominator)
    assert out.samples.shape == ref.shape == (resampled_length(x, new),)
    assert np.max(np.abs(out.samples - ref)) <= 1e-13


@pytest.mark.parametrize("old, new", [(65536.0, 65535.0), (65535.0, 65536.0)])
def test_resample_at_largest_factor_matches_and_stays_bounded(old, new):
    # a 1.3 M-tap filter for 10 or 11 outputs, designed in chunks: 11.3 MiB
    # peak (62.5 MiB in one piece; resample_poly peaks at 63 MB here)
    from scipy.signal import resample_poly  # test-time reference

    x = np.random.default_rng(7).standard_normal(10)
    tracemalloc.start()
    try:
        out = resample(SampleBuffer(x, old), new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak
    ref = resample_poly(x, int(new), int(old))
    assert out.samples.shape == ref.shape == (resampled_length(SampleBuffer(x, old), new),)
    assert np.max(np.abs(out.samples - ref)) <= 1e-13


@pytest.mark.parametrize("old, new", [(65536.0, 65535.0), (65535.0, 65536.0)])
def test_resample_worst_plan_is_bounded(old, new):
    # 65536 inputs plan every phase: about 3000 tap matrices, built together
    # and kept (21.5 MB), for a 26.8 MiB peak
    x = SampleBuffer(np.random.default_rng(7).standard_normal(65536), old)
    tracemalloc.start()
    try:
        out = resample(x, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20, peak
    assert out.samples.shape == (resampled_length(x, new),)
    up, down = kernels._factors(old, new)
    lo, hi, groups = kernels._resample_plan(up, down, up)  # the key just planned
    assert kernels._resample_plan.cache_info().currsize == 1
    assert sum(matrix.nbytes for _, _, matrix in groups) <= 22_000_000


@pytest.mark.parametrize("old, new, n", _resample_cases())
def test_resample_plan_cache_keeps_the_bits(old, new, n):
    x = SampleBuffer(np.random.default_rng(n).standard_normal(n), old)
    fresh = resample(x, new).samples
    info = kernels._resample_plan.cache_info()
    assert np.array_equal(fresh, resample(x, new).samples)  # from the plan just made
    if info.misses:  # a same-rate or empty call plans nothing
        assert kernels._resample_plan.cache_info().hits == info.hits + 1


def test_resample_plan_is_made_once_per_key(monkeypatch):
    x = SampleBuffer(np.random.default_rng(3).standard_normal(4410), 44100.0)
    first = resample(x, 48000.0).samples
    before = kernels._resample_plan.cache_info()
    monkeypatch.setattr(kernels.np, "i0", None)  # the design's Kaiser window: any design fails
    assert np.array_equal(resample(x, 48000.0).samples, first)
    after = kernels._resample_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_resample_plan_arrays_are_read_only():
    x = SampleBuffer(np.ones(3000), 44100.0)
    for new in (48000.0, 96000.0, 8000.0, 22050.0):
        resample(x, new)
    for up, down, phases in ((160, 147, 160), (320, 147, 320), (80, 441, 80), (1, 2, 1)):
        lo, hi, groups = kernels._resample_plan(up, down, phases)
        assert groups
        for r0, start, matrix in groups:
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
    assert kernels._resample_plan.cache_info().misses == 4


def test_resample_plan_cache_is_bounded():
    x = SampleBuffer(np.ones(1000), 48000.0)
    for new in (8000.0, 16000.0, 22050.0, 44100.0, 96000.0):  # five keys
        resample(x, new)
    info = kernels._resample_plan.cache_info()
    assert info.misses == 5
    assert info.currsize == info.maxsize == 4


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
