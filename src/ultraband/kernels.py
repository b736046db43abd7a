"""Reusable DSP primitives: FIR design, Hilbert transform, windows, resampling.

Everything here is a pure function over :class:`~ultraband.wavio.SampleBuffer`
values. FFTs come from ``numpy.fft``, so importing the package loads no
scipy module; only a real rate change imports ``scipy.signal``. The
numerically relevant choices -- tap formulas, spectral bin weighting, window
shapes -- are all explicit in this file.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadAlpha, BadArgument, BadCutoff, BadRate, BadTaps, EmptySignal, RateMismatch
from .wavio import SampleBuffer

log = logging.getLogger(__name__)

#: The published operating point: a 16 kHz carrier and a 6 kHz band put the
#: shifted speech in 16-22 kHz, the band the modulator fills and the
#: detector watches.
CARRIER_HZ = 16000.0
BAND_HZ = 6000.0
#: FIR length of the band-limiting and recovery low-pass filters.
FIR_TAPS = 255

# Below this the Hamming-windowed sinc cannot reach useful stopband rejection.
_LOW_QUALITY_TAPS = 31

#: Largest up or down factor ``resample`` accepts. The polyphase filter has
#: about 20 taps per unit of the larger factor, so this caps it near 10 MB.
MAX_RESAMPLE_FACTOR = 1 << 16

# Overlap-add blocks per batch: ~2 MB of scratch at 255 taps whatever the
# signal length; larger batches fall out of cache and run slower.
_OLA_BATCH = 64


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2**a * 3**b * 5**c) that is >= ``n`` >= 1.

    Equal to ``scipy.fft.next_fast_len(n, real=True)``; numpy's real FFT is
    fast at such lengths.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def check_taps(n_taps, error: type, name: str) -> int:
    """Return ``n_taps`` as an int; raise ``error`` unless it is an odd integer >= 3."""
    if int(n_taps) != n_taps or n_taps < 3 or int(n_taps) % 2 == 0:
        raise error(f"{name} {n_taps} must be an odd integer >= 3")
    return int(n_taps)


def check_band(carrier_hz: float, width_hz: float, rate_hz: float, error: type, width_name: str):
    """Raise ``error`` unless both edges are positive and the band
    [carrier, carrier + width] fits under Nyquist (up to rounding)."""
    for name, value in (("carrier_hz", carrier_hz), (width_name, width_hz)):
        if not value > 0:
            raise error(f"{name} {value} must be positive")
    if carrier_hz + width_hz > rate_hz / 2 * (1.0 + 1e-12):
        raise error(
            f"band [{carrier_hz}, {carrier_hz + width_hz}] Hz does not fit "
            f"under Nyquist ({rate_hz / 2} Hz)"
        )


@dataclass(frozen=True)
class FirFilter:
    """Designed FIR filter: coefficient vector plus the rate it assumes."""

    taps: np.ndarray
    cutoff_hz: float
    design_rate_hz: float

    def __post_init__(self):
        arr = np.array(self.taps, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "taps", arr)
        if arr.size % 2 == 0:
            raise BadTaps("FIR length must be odd for integer group delay")
        if not abs(arr.sum() - 1.0) <= 1e-6:  # NaN taps fail too
            raise BadTaps("FIR coefficients must sum to 1 (unit DC gain)")

    @property
    def group_delay(self) -> int:
        return (self.taps.size - 1) // 2


def design_lowpass(cutoff_hz: float, rate_hz: float, n_taps: int = FIR_TAPS) -> FirFilter:
    """Design a linear-phase low-pass FIR (windowed sinc, Hamming window).

    The -6 dB point lands on ``cutoff_hz``. Coefficients are normalized to
    unit sum and symmetrized exactly, so DC gain is 1 and group delay is
    ``(n_taps - 1) / 2`` samples at every frequency.

    Parameters
    ----------
    cutoff_hz : float
        Edge frequency, 0 < cutoff < rate/2.
    rate_hz : float
        Sample rate the filter will run at.
    n_taps : int
        Odd number of coefficients, >= 3. Short filters are legal but give
        weak stopband rejection; 255 taps reaches better than -40 dB.
    """
    if not 0 < rate_hz < math.inf:
        raise BadRate(f"rate {rate_hz} Hz must be positive and finite")
    if not 0 < cutoff_hz < rate_hz / 2:
        raise BadCutoff(f"cutoff {cutoff_hz} Hz must lie inside (0, {rate_hz / 2})")
    n_taps = check_taps(n_taps, BadTaps, "n_taps")
    if n_taps < _LOW_QUALITY_TAPS:
        log.warning(
            "design_lowpass: %d taps gives poor stopband attenuation; consider >= %d",
            n_taps,
            _LOW_QUALITY_TAPS,
        )

    half = (n_taps - 1) // 2
    k = np.arange(-half, half + 1)
    fn = cutoff_hz / rate_hz
    h = 2.0 * fn * np.sinc(2.0 * fn * k) * np.hamming(n_taps)
    h = 0.5 * (h + h[::-1])  # force exact symmetry
    h /= h.sum()
    return FirFilter(taps=h, cutoff_hz=float(cutoff_hz), design_rate_hz=float(rate_hz))


def apply_filter(filt: FirFilter, signal: SampleBuffer) -> SampleBuffer:
    """Filter a signal, compensating group delay so output aligns with input.

    Convolution is overlap-add (Oppenheim & Schafer, ch. 8) on real FFTs of
    a 5-smooth length near 8x the tap count, or just long enough for a
    short input to fit in one block (at least 2x the taps). It costs
    O(n log taps) rather than one transform of the whole signal, and the
    blocks are transformed a fixed batch at a time, so scratch memory does
    not grow with the input. Edges are computed against implicit zero
    padding; output length equals input length. Raises RateMismatch if the
    signal's rate is not the rate the filter was designed for.
    """
    if not math.isclose(signal.sample_rate_hz, filt.design_rate_hz, rel_tol=1e-9):
        raise RateMismatch(
            f"signal at {signal.sample_rate_hz} Hz, filter designed for {filt.design_rate_hz} Hz"
        )
    if len(signal) == 0:
        return signal
    x, m = signal.samples, filt.taps.size
    n_fft = next_fast_len(min(8 * m, max(2 * m, len(x) + m - 1)))
    step = n_fft - m + 1  # input samples per block; each block's tail is m - 1 < step
    n_blocks = -(-len(x) // step)
    spectrum = np.fft.rfft(filt.taps, n_fft)
    # Row j holds output samples [j * step, (j + 1) * step): block j's head
    # plus block j - 1's tail. One spare row takes the last block's tail.
    full = np.zeros((n_blocks + 1, step))
    for first in range(0, n_blocks, _OLA_BATCH):
        chunk = x[first * step : (first + _OLA_BATCH) * step]
        k = -(-chunk.size // step)
        blocks = np.zeros((k, step))
        blocks.reshape(-1)[: chunk.size] = chunk
        y = np.fft.irfft(np.fft.rfft(blocks, n_fft) * spectrum, n_fft)
        full[first : first + k] += y[:, :step]
        full[first + 1 : first + k + 1, : m - 1] += y[:, step:]
    d = filt.group_delay
    return SampleBuffer(full.reshape(-1)[d : d + len(x)], signal.sample_rate_hz)


def hilbert(signal: SampleBuffer) -> SampleBuffer:
    """Return the Hilbert transform (imaginary part of the analytic signal).

    Computed with a real FFT at the input's own length (Marple, IEEE Trans.
    SP 47(9), 1999): positive-frequency bins are multiplied by -j, DC and
    the Nyquist bin are zeroed. A pure cosine maps to the same-frequency
    sine; DC maps to zero. The transform is circular, so it is exact for a
    periodic input and x -> -x when applied twice to a zero-mean input of
    odd length. Its cost follows the factorisation of the length: a length
    with a large prime factor can take 10-20x longer than the next 5-smooth
    one (``next_fast_len``). Padding is left to the caller, since
    it changes the result near the ends.
    """
    n = len(signal)
    if n == 0:
        raise EmptySignal("hilbert of an empty signal")
    spectrum = np.fft.rfft(signal.samples)
    spectrum *= -1j
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = 0.0
    return SampleBuffer(np.fft.irfft(spectrum, n), signal.sample_rate_hz)


def tukey_window(length: int, alpha: float) -> np.ndarray:
    """Evaluate a Tukey (tapered cosine) window of ``length`` samples.

    ``alpha`` is the total fraction of the window spent in the two cosine
    ramps: alpha=0 degenerates to rectangular, alpha=1 to a Hann window.
    For alpha > 0 the endpoints are exactly zero.
    """
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha {alpha} outside [0, 1]")
    if length < 2:
        raise BadArgument("window length must be >= 2")
    if alpha == 0.0:
        return np.ones(length)

    x = np.linspace(0.0, 1.0, length)
    w = np.ones(length)
    rising = x < alpha / 2
    falling = x > 1.0 - alpha / 2
    w[rising] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * x[rising] / alpha - 1.0)))
    w[falling] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * x[falling] / alpha - 2.0 / alpha + 1.0)))
    return w


def peak_normalize(signal: SampleBuffer, target: float = 1.0) -> SampleBuffer:
    """Scale so the maximum absolute sample equals ``target``.

    All-zero (or empty) input is returned unchanged; there is no peak to move.
    """
    if not 0.0 < target <= 1.0:
        raise BadArgument(f"target {target} outside (0, 1]")
    if len(signal) == 0:
        return signal
    peak = float(np.max(np.abs(signal.samples)))
    if peak == 0.0:
        return signal
    scale = target / peak
    if math.isinf(scale):  # subnormal peak: 1 / peak overflows, so divide first
        return SampleBuffer(signal.samples / peak * target, signal.sample_rate_hz)
    return SampleBuffer(signal.samples * scale, signal.sample_rate_hz)


def resample(signal: SampleBuffer, new_rate_hz: float) -> SampleBuffer:
    """Band-limited rational resampling (polyphase windowed-sinc).

    Content below 0.45 * min(old, new) rate survives within 0.5 dB. A
    same-rate request returns the samples untouched. The up/down factors are
    the exact ratio of the two rates in lowest terms, so the output really is
    at ``new_rate_hz``; BadRate is raised when either factor exceeds
    ``MAX_RESAMPLE_FACTOR`` or ``new_rate_hz`` is not positive and finite.
    """
    if not 0 < new_rate_hz < math.inf:
        raise BadRate(f"rate {new_rate_hz} Hz must be positive and finite")
    if math.isclose(signal.sample_rate_hz, new_rate_hz, rel_tol=1e-9):
        return SampleBuffer(signal.samples, new_rate_hz)
    if len(signal) == 0:
        return SampleBuffer(signal.samples, new_rate_hz)
    ratio = Fraction(new_rate_hz) / Fraction(signal.sample_rate_hz)
    if max(ratio.numerator, ratio.denominator) > MAX_RESAMPLE_FACTOR:
        raise BadRate(
            f"{signal.sample_rate_hz} -> {new_rate_hz} Hz needs an up or down "
            f"factor above MAX_RESAMPLE_FACTOR = {MAX_RESAMPLE_FACTOR}"
        )
    from scipy.signal import resample_poly  # ~1.5 s to load; only rate changes pay

    out = resample_poly(signal.samples, ratio.numerator, ratio.denominator)
    return SampleBuffer(out, new_rate_hz)
