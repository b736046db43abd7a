"""Reusable DSP primitives: FIR design, Hilbert transform, windows, resampling.

Everything here is a pure function over :class:`~ultraband.wavio.SampleBuffer`
values, written in numpy alone: FFTs come from ``numpy.fft`` and the
polyphase resampler is a strided matrix product, so the package loads no
scipy module. Long filters, ``analysis.measure``, ``detect`` and ``_spectrum``
run on two CPUs if there are two (``_in_two``). The filter also mixes the
carrier for ``modulate`` and ``demodulate`` block by block and reads a
``PcmClip``'s int16 channel. Tap formulas and window shapes are explicit
here; the bin weights are ``analysis._weighted_power``.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BadAlpha, BadArgument, BadCutoff, BadRate, BadTaps, EmptySignal,
                     RateMismatch, check_count, check_fraction, check_positive)
from .wavio import READ_SCALE, PcmClip, SampleBuffer, _finite

log = logging.getLogger(__name__)

#: The published operating point: a 16 kHz carrier and a 6 kHz band put the
#: shifted speech in 16-22 kHz, the band the modulator fills and the
#: detector watches.
CARRIER_HZ = 16000.0
BAND_HZ = 6000.0
#: FIR length of the recovery low-pass filter; in ``modulate``, a floor.
FIR_TAPS = 255

# Below this the Hamming-windowed sinc cannot reach useful stopband rejection.
_LOW_QUALITY_TAPS = 31

#: Largest up or down factor ``resample`` accepts. The polyphase filter has
#: about 20 taps per unit of the larger factor: at this bound 1.3 M taps, of
#: which ``resample`` keeps the symmetric half (5.2 MB), designed 65536 taps
#: at a time. A 10-sample input then peaks at 11.3 MiB under tracemalloc and
#: takes about 0.12 s (2-core VM).
MAX_RESAMPLE_FACTOR = 1 << 16

# FFT points per overlap-add batch (over all tap rows) and per segment of
# ``analysis._spectrum``: a few MB of scratch whatever the signal; more falls out of cache.
_FFT_POINTS = 1 << 17

# Resampler output periods per matrix product, so that a product's input
# rows (1.4 MB at 44.1 -> 48 kHz) stay in cache.
_RESAMPLE_ROWS = 4096

# Resampler filter taps designed per chunk (sinc and Kaiser window).
_DESIGN_CHUNK = 65536

# Shortest carrier table: a mix then runs as a few long multiplies, and the
# table stays in cache (64 KB for cos and sin).
_CARRIER_TABLE = 4096


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
    if not (n_taps >= 3 and float(n_taps).is_integer() and int(n_taps) % 2):
        raise error(f"{name} {n_taps} must be an odd integer >= 3")
    return int(n_taps)


def check_band(carrier_hz: float, width_hz: float, rate_hz: float, error: type, width_name: str):
    """Raise ``error`` unless both edges are positive and finite and the band
    [carrier, carrier + width] fits under Nyquist (up to rounding)."""
    check_positive(carrier_hz, error, "carrier_hz")
    check_positive(width_hz, error, width_name)
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
    check_positive(rate_hz, BadRate, "rate_hz")
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
    O(n log taps) rather than one transform of the whole signal, and
    scratch memory does not grow with the input: the blocks are transformed
    about 2**17 FFT points at a time. Edges are computed against implicit
    zero padding; output length equals input length. Raises RateMismatch if
    the signal's rate is not the rate the filter was designed for.
    """
    if not math.isclose(signal.sample_rate_hz, filt.design_rate_hz, rel_tol=1e-9):
        raise RateMismatch(
            f"signal at {signal.sample_rate_hz} Hz, filter designed for {filt.design_rate_hz} Hz"
        )
    if len(signal) == 0:
        return signal
    return SampleBuffer._adopt_finite(_overlap_add(signal.samples, filt.taps), signal.sample_rate_hz)


def _overlap_add(x: np.ndarray, taps: np.ndarray, mix_in=None, mix_out=None) -> np.ndarray:
    """``apply_filter``'s convolution of ``x`` (nonempty float64, or an int16 PCM
    lane, scaled as ``to_float`` scales it) with each row of ``taps`` (m odd),
    into one fresh array. Each block's ``rfft`` is shared by every row. Input
    row i is x * mix_in[i] (tables read as ``_mix`` reads them); with
    ``mix_out``, (cos, sin), tap rows b and h give one row b * cos - h * sin,
    mixed once it holds its head and tail. From two full batches on, two halves
    of the blocks run in half-size batches (``_in_two``) with the same bits:
    each output is zero plus a head plus a tail."""
    m, n = taps.shape[-1], len(x)
    n_fft = next_fast_len(min(8 * m, max(2 * m, n + m - 1)))
    step = n_fft - m + 1  # input samples per block; each block's tail is m - 1 < step
    n_blocks = -(-n // step)
    in_rows = () if mix_in is None else (len(mix_in),)
    rows = np.broadcast_shapes(in_rows, taps.shape[:-1])
    points = n_fft * math.prod(rows)
    split = _cpu_count() >= 2 and n_blocks * points >= 2 * _FFT_POINTS
    batch = max(1, _FFT_POINTS // ((1 + split) * points))
    spectrum = np.fft.rfft(taps, n_fft)[..., None, :]
    out = np.empty((n,) if mix_out is not None else rows + (n,))
    heads, tails = {}, {}  # rows that end a half, added and written once both are done

    def fill(first: int, k: int) -> np.ndarray:  # blocks first, ..., first + k - 1
        chunk = x[first * step : (first + k) * step]
        blocks = np.zeros(in_rows + (k, step))
        flat = blocks.reshape(-1, k * step)[:, : chunk.size]
        if x.dtype == np.int16:  # to_float's formula, into row 0
            chunk = np.divide(chunk, READ_SCALE, out=flat[0])
        elif mix_in is None:
            flat[0] = chunk
        for i in reversed(range(0 if mix_in is None else len(mix_in))):  # row 0 may be chunk
            _mix(chunk, mix_in[i], flat[i], first * step)
        return blocks

    def emit(done: np.ndarray, j: int) -> None:  # complete rows j, j + 1, ...
        flat = done.reshape(rows + (-1,))
        t = j * step - (m - 1) // 2  # flat's first sample, as an output index
        lo, hi = max(0, t), min(n, t + flat.shape[-1])
        if lo < hi and mix_out is None:
            out[..., lo:hi] = flat[..., lo - t : hi - t]
        elif lo < hi:
            (base, quad), (cos, sin) = flat[..., lo - t : hi - t], mix_out
            np.subtract(_mix(base, cos, base, lo), _mix(quad, sin, quad, lo), out=out[lo:hi])

    def run(a: int, b: int) -> None:
        # row i: block first + i's head plus the tail before; row k carries over
        ring = np.zeros(rows + (min(batch, b - a) + 1, step))
        for first in range(a, b, batch):
            k = min(batch, b - first)
            y = np.fft.irfft(np.fft.rfft(fill(first, k), n_fft) * spectrum, n_fft)
            ring[..., :k, :] += y[..., :step]
            ring[..., 1 : k + 1, : m - 1] += y[..., step:]
            seam = first == a > 0  # row a lacks the tail of the other half's last block
            if seam:
                heads[a] = ring[..., 0, :].copy()
            emit(ring[..., seam:k, :], first + seam)
            if first + k < b:
                ring[..., 0, :] = ring[..., k, :]
                ring[..., 1 : k + 1, :] = 0.0
        tails[b] = ring[..., k, :]

    _in_two(run, n_blocks, split)
    for j, tail in tails.items():  # the halves' seam row, and the last block's tail
        if j in heads:
            heads[j][..., : m - 1] += tail[..., : m - 1]
        emit(heads.get(j, tail)[..., None, :], j)
    return out


def _cpu_count() -> int:  # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_two(work, n: int, split: bool = True) -> None:
    """Run ``work(0, n)``. With ``split`` and two CPUs or more, a worker thread
    runs the second half, ``work(n // 2, n)``, while this one runs the first;
    both finish before an exception from either is raised here."""
    if not split or _cpu_count() < 2 or n < 2:
        return work(0, n)
    failed = []

    def guarded(a, b):
        try:
            work(a, b)
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=guarded, args=(n // 2, n))
    worker.start()
    guarded(0, n // 2)
    worker.join()
    if failed:
        raise failed[0]


def hilbert(signal: SampleBuffer) -> SampleBuffer:
    """Return the Hilbert transform (imaginary part of the analytic signal).

    Computed with a real FFT at the input's own length (Marple, IEEE Trans.
    SP 47(9), 1999): positive-frequency bins are multiplied by -j, DC and
    the Nyquist bin are zeroed. A pure cosine maps to the same-frequency
    sine; DC maps to zero. The transform is circular, so it is exact for a
    periodic input and x -> -x when applied twice to a zero-mean input of
    odd length. Its cost follows the factorisation of the length: a length
    with a large prime factor can take 10-20x longer than the next 5-smooth
    one (``next_fast_len``).
    """
    n = len(signal)
    if n == 0:
        raise EmptySignal("hilbert of an empty signal")
    spectrum = np.fft.rfft(signal.samples)
    spectrum *= -1j
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = 0.0
    return SampleBuffer._adopt_finite(np.fft.irfft(spectrum, n), signal.sample_rate_hz)


def _tukey_ramps(length: int, alpha: float):
    """(rise, fall): the first ``rise.size`` and last ``fall.size`` samples of
    ``tukey_window(length, alpha)`` for alpha > 0; the samples between are 1.0.

    The abscissa is numpy's ``linspace(0, 1, length)``, i * (1 / (length - 1))
    with the last point exactly 1.0, evaluated only near the two ends.
    """
    step = 1.0 / (length - 1)
    # each ramp spans about alpha / 2 of the window; the spare sample absorbs rounding
    span = min(length, int(alpha / 2 * (length - 1)) + 2)
    head = np.arange(span) * step
    tail = np.arange(length - span, length) * step
    tail[-1] = 1.0
    rise = head[head < alpha / 2]
    fall = tail[tail > 1.0 - alpha / 2]
    rise = 0.5 * (1.0 + np.cos(np.pi * (2.0 * rise / alpha - 1.0)))
    fall = 0.5 * (1.0 + np.cos(np.pi * (2.0 * fall / alpha - 2.0 / alpha + 1.0)))
    return rise, fall


def tukey_window(length: int, alpha: float) -> np.ndarray:
    """Evaluate a Tukey (tapered cosine) window of ``length`` samples.

    ``alpha`` is the total fraction of the window spent in the two cosine
    ramps: alpha=0 degenerates to rectangular, alpha=1 to a Hann window.
    For alpha > 0 the endpoints are exactly zero. BadAlpha unless alpha lies
    in [0, 1]; BadArgument unless ``length`` is a whole number >= 2.
    """
    check_fraction(alpha, BadAlpha, "alpha", zero_ok=True)
    length = check_count(length, BadArgument, "window length", 2)
    w = np.ones(length)
    if alpha > 0.0:
        rise, fall = _tukey_ramps(length, alpha)
        w[: rise.size] = rise
        w[length - fall.size :] = fall
    return w


def _taper(x: np.ndarray, alpha: float) -> None:
    """Multiply ``x`` (two samples or more) by ``tukey_window(len(x), alpha)``
    in place, with the same bits: only the ramp samples are touched."""
    if alpha > 0.0:
        rise, fall = _tukey_ramps(len(x), alpha)
        x[: rise.size] *= rise
        x[len(x) - fall.size :] *= fall


def peak_normalize(signal: SampleBuffer, target: float = 1.0) -> SampleBuffer:
    """Scale so the maximum absolute sample equals ``target``.

    All-zero (or empty) input is returned unchanged; there is no peak to move.
    """
    check_fraction(target, BadArgument, "target")
    if len(signal) == 0:
        return signal
    scaled = _normalize(signal.samples, target, None)
    return signal if scaled is signal.samples else SampleBuffer._adopt(scaled, signal.sample_rate_hz)


def _normalize(x: np.ndarray, target: float, out) -> np.ndarray:
    """``x`` (nonempty, finite) scaled to a peak |sample| of ``target`` into ``out``
    (``x``, or None for a fresh array); ``x`` itself when all zero. No |x| array."""
    peak = max(float(x.max()), -float(x.min()))
    if peak == 0.0:
        return x
    scale = target / peak
    # |sample| <= peak and target <= 1, so either product is finite
    if math.isinf(scale):  # subnormal peak: 1 / peak overflows, so divide first
        return np.multiply(np.divide(x, peak, out=out), target, out=out)
    return np.multiply(x, scale, out=out)


def _lane(signal) -> np.ndarray:
    """A SampleBuffer's samples, or a PcmClip's channel 0 as a strided int16 view."""
    return signal.samples[:: signal.channels] if isinstance(signal, PcmClip) else signal.samples


def _carrier(freq_hz: float, rate_hz: float, n: int):
    """cos and sin tables of the carrier 2 * pi * freq * k / rate for ``_mix``.

    The carrier repeats every q samples, q the denominator of freq / rate in
    lowest terms (3 for 16 kHz at 48 kHz). The tables cover the fewest whole
    periods that make at least ``_CARRIER_TABLE`` samples, or all ``n``
    samples when the signal is shorter. The phase is reduced before it is
    scaled, (2 * pi / rate) * fmod(k * freq, rate), which is exact while
    k * freq is; so a table of whole periods is exact to rounding, and
    sample k of any signal reads the carrier's value at k.
    """
    q = (Fraction(freq_hz) / Fraction(rate_hz)).denominator
    m = min(n, -(-_CARRIER_TABLE // q) * q)
    phase = np.fmod(np.arange(m) * float(freq_hz), rate_hz)
    phase *= 2.0 * np.pi / rate_hz
    return np.cos(phase), np.sin(phase)


def _mix(x: np.ndarray, table: np.ndarray, out: np.ndarray, first: int = 0) -> np.ndarray:
    """Write x[k] * table[(first + k) % len(table)] into the contiguous ``out``; return it."""
    m, p = table.size, first % table.size
    lead = min(x.size, -p % m)  # samples before the table's next period starts
    np.multiply(x[:lead], table[p : p + lead], out=out[:lead])
    whole = lead + (x.size - lead) // m * m
    np.multiply(x[lead:whole].reshape(-1, m), table, out=out[lead:whole].reshape(-1, m))
    np.multiply(x[whole:], table[: x.size - whole], out=out[whole:])
    return out


def _polyphase(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """``scipy.signal.resample_poly(x, up, down)`` for coprime factors, in numpy.

    The filter is resample_poly's: a Kaiser (beta = 5) windowed sinc of
    2 * half + 1 taps, half = 10 * max(up, down), cut off at the lower
    Nyquist, scaled to unit DC gain and then by ``up``. With its zero pre-pad
    the output lands centred on the filter, so output j is
    sum_i h[half + i * up - j * down] * x[i] (Crochiere & Rabiner, *Multirate
    Digital Signal Processing*, 1983). Output j = q * up + r reads
    x[q * down + m] for the m of phase r, so a group of phases is one dense
    tap matrix applied to input rows that step ``down`` samples per period.
    """
    n_out = -(-len(x) * up // down)
    half = 10 * max(up, down)
    # taps[k] = h[half + k] for k <= half (h is symmetric); taps[half + 1] = 0
    # stands for every tap past the end. Each tap depends on k alone, so the
    # design runs in chunks that bound its temporaries.
    taps = np.zeros(half + 2)
    for c in range(0, half + 1, _DESIGN_CHUNK):
        k = np.arange(c, min(c + _DESIGN_CHUNK, half + 1), dtype=np.float64)
        window = np.i0(5.0 * np.sqrt(1.0 - (k / half) ** 2)) / np.i0(5.0)
        taps[c : c + k.size] = np.sinc(k / max(up, down)) * window
    taps *= up / (2.0 * taps.sum() - taps[0])
    # Only phases that produce an output are built: min(up, n_out) of them.
    phases, periods = min(up, n_out), -(-n_out // up)
    # g phases read about L + g * down / up inputs (L taps per phase), so
    # g = up * L / down keeps a tap matrix about 2L wide.
    group = min(phases, -(-up * (2 * half // up + 1) // down))
    lo = -(half // up)  # first input offset of phase 0; the zero pad covers it
    hi = ((phases - 1) * down + half) // up
    padded = np.zeros(max(len(x), (periods - 1) * down + hi + 1) - lo)
    padded[-lo : len(x) - lo] = x
    out = np.empty((periods, phases))
    for r0 in range(0, phases, group):
        r = np.arange(r0, min(r0 + group, phases))
        first = -((half - r0 * down) // up)
        width = (r[-1] * down + half) // up - first + 1
        lag = np.abs(np.arange(first, first + width)[:, None] * up - r * down)
        matrix = taps[np.minimum(lag, half + 1)]
        start = first - lo
        rows = sliding_window_view(padded[start : start + (periods - 1) * down + width], width)
        rows = rows[::down]
        for s in range(0, periods, _RESAMPLE_ROWS):
            np.matmul(rows[s : s + _RESAMPLE_ROWS], matrix,
                      out=out[s : s + _RESAMPLE_ROWS, r0 : r0 + r.size])
    return out.reshape(-1)[:n_out]


def _factors(old_rate_hz: float, new_rate_hz: float):
    """(up, down): new / old in lowest terms; (1, 1) for rates within 1e-9."""
    check_positive(new_rate_hz, BadRate, "new_rate_hz")
    if math.isclose(old_rate_hz, new_rate_hz, rel_tol=1e-9):
        return 1, 1
    ratio = Fraction(new_rate_hz) / Fraction(old_rate_hz)
    if max(ratio.numerator, ratio.denominator) > MAX_RESAMPLE_FACTOR:
        raise BadRate(f"{old_rate_hz} -> {new_rate_hz} Hz needs an up or down factor "
                      f"above MAX_RESAMPLE_FACTOR = {MAX_RESAMPLE_FACTOR}")
    return ratio.numerator, ratio.denominator


def resampled_length(signal: SampleBuffer, new_rate_hz: float) -> int:
    """``len(resample(signal, new_rate_hz))`` without resampling; BadRate alike."""
    up, down = _factors(signal.sample_rate_hz, new_rate_hz)
    return -(-len(signal) * up // down)


def resample(signal: SampleBuffer, new_rate_hz: float) -> SampleBuffer:
    """Band-limited rational resampling (polyphase Kaiser-windowed sinc).

    The up/down factors are the exact ratio of the two rates in lowest terms,
    so the output really is at ``new_rate_hz``. The filter is a Kaiser
    (beta = 5) windowed sinc of 20 * max(up, down) + 1 taps, cut off at the
    lower of the two Nyquist rates, and the output equals
    ``scipy.signal.resample_poly`` to rounding (about 1e-15) in length and
    alignment: ``resampled_length`` samples, the first at the first input's
    time. Content below 0.45 * min(old, new) rate survives within 0.5 dB. A
    same-rate request shares the input's samples. BadRate is raised, at any
    length, when either factor exceeds ``MAX_RESAMPLE_FACTOR`` or
    ``new_rate_hz`` is not positive and finite.
    """
    up, down = _factors(signal.sample_rate_hz, new_rate_hz)
    if up == down or len(signal) == 0:  # the samples are frozen and finite already
        return SampleBuffer._adopt(signal.samples, new_rate_hz)
    return SampleBuffer._adopt_finite(_polyphase(signal.samples, up, down), new_rate_hz)
