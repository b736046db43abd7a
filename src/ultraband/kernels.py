"""Reusable DSP primitives: FIR design, Hilbert transform, windows, resampling.

Everything here is a pure function over :class:`~ultraband.wavio.SampleBuffer`
values, written in numpy alone: FFTs come from ``numpy.fft`` and the
polyphase resampler is a strided matrix product, so the package loads no
scipy module. One block loop, ``_framed``, runs the overlap-add filter and
every framed spectrum: it reads a source a span at a time, and on two CPUs
(``_splits``) one worker thread per call takes every other block. The filter
also mixes the carrier block by block: into its input for the plain
``demodulate``, or, for ``modulate`` and ``demodulate``'s phase search, into
the output of a complex filter with tap rows r0 and r1, one row r0 * a + r1 * b
per pair of carrier tables (a, b), so the input is transformed once. It reads
a ``PcmClip`` or a ``WavFile`` in spans, and returns a list of rows, each
checked finite. Tap formulas and window shapes are explicit here; the bin
weights are ``analysis._weighted_power``. ``resample`` designs a rate pair's
filter once per process: ``_resample_plan`` keeps the read-only tap matrices
of the latest ``_RESAMPLE_PLANS`` (up, down, phases) keys.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import queue
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BadAlpha, BadArgument, BadCutoff, BadRate, BadTaps, EmptySignal,
                     RateMismatch, check_count, check_fraction, check_positive)
from .wavio import PcmClip, SampleBuffer, WavFile, _finite

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
#: which ``_resample_plan`` keeps the symmetric half (5.2 MB) while it builds
#: the tap matrices, designed 65536 taps at a time. A 10-sample input then
#: peaks at 11.3 MiB under tracemalloc and takes about 0.11 s (2-core VM).
#: A kept plan holds only its matrices: 0.5-104 KB at the common rate pairs,
#: 8.1 MB at 1 -> 48000 Hz and 21.5 MB at 65535 -> 65536 Hz with 65536
#: outputs or more. That call, of 65536 inputs, peaks at 26.8 MiB (11.8 when
#: the matrices were built one group at a time).
MAX_RESAMPLE_FACTOR = 1 << 16

# FFT points per segment of ``analysis._spectrum``, and half of what
# ``_splits`` asks for: a few MB of scratch whatever the signal; more falls
# out of cache.
_FFT_POINTS = 1 << 17

#: Samples framed per block of ``_framed`` (a window's copies, or results
#: beside their transform, count twice): one run of transforms, whose arrays
#: are the scratch each thread holds.
_BLOCK_SAMPLES = _FFT_POINTS

# Resampler output periods per matrix product, so that a product's input
# rows (1.4 MB at 44.1 -> 48 kHz) stay in cache.
_RESAMPLE_ROWS = 4096

# Resampler filter taps designed per chunk (sinc and Kaiser window).
_DESIGN_CHUNK = 65536

# Resampler plans ``_resample_plan`` keeps: a batch of 16, 22.05 and 44.1 kHz
# rows at 48 kHz uses 3. At 21.5 MB a plan at worst (``MAX_RESAMPLE_FACTOR``),
# the cache retains 86 MB at most.
_RESAMPLE_PLANS = 4

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
    scratch memory does not grow with the input: each thread transforms
    blocks of about 2**16 FFT points at a time. Edges are computed against
    implicit zero padding; output length equals input length. Raises
    RateMismatch if the signal's rate is not the rate the filter was
    designed for.
    """
    if not math.isclose(signal.sample_rate_hz, filt.design_rate_hz, rel_tol=1e-9):
        raise RateMismatch(
            f"signal at {signal.sample_rate_hz} Hz, filter designed for {filt.design_rate_hz} Hz"
        )
    if len(signal) == 0:
        return signal
    (y,) = _overlap_add(signal, filt.taps)
    return SampleBuffer._adopt(y, signal.sample_rate_hz)


def _overlap_add(source, taps: np.ndarray, mix_in=None, mix_out=()):
    """``apply_filter``'s convolution of ``source`` (nonempty, read by ``_read``:
    a ``PcmClip``'s or ``WavFile``'s channel 0 as ``to_float`` scales it)
    with each row of ``taps`` (m odd; 1-D taps are one row). The input is the
    source times the table ``mix_in`` if given (read as ``_mix`` reads a
    table). With ``mix_out``, pairs of tables (a, b), tap rows r0 and r1 are
    the real and imaginary parts of a complex filter whose output is moved by
    the carrier: each pair's output row is r0 * a + r1 * b. ``_framed``'s
    frames are ``step`` input samples (the last zero-padded), each transformed
    once and multiplied by every row's spectrum. A frame's last m - 1 outputs
    (its tail) add onto the next frame's first, and each block's finished
    span is mixed and written into the output rows in order. Returns a list
    of fresh rows, one per pair of ``mix_out`` or else per tap row, each
    checked finite."""
    taps = np.atleast_2d(taps)
    (rows, m), n = taps.shape, len(source)
    n_fft = next_fast_len(min(8 * m, max(2 * m, n + m - 1)))
    step = n_fft - m + 1  # input samples per frame; each frame's tail is m - 1 < step
    n_frames = -(-n // step)
    spectrum = np.fft.rfft(taps, n_fft)[:, None, :]
    # a row holds every frame's span and the last tail; output i is convolution i + skip
    skip = (m - 1) // 2
    full = [np.empty(n_frames * step + m - 1) for _ in range(len(mix_out) or rows)]

    def by_row(block):  # a block's results, frame by frame, as (rows, frames, n_fft)
        return block.reshape(len(block), rows, n_fft).transpose(1, 0, 2)

    def transform(frames, out):  # then each frame's tail onto the next frame's head
        y = np.fft.irfft(np.fft.rfft(frames, n_fft) * spectrum, n_fft, out=by_row(out))
        y[:, 1:, : m - 1] += y[:, :-1, step:]

    def emit(done, c):  # done: (rows, k, w), convolution samples c, c + 1, ...
        k, w = done.shape[1:]
        spans = [row[c : c + k * w] for row in full]
        if not mix_out:
            for span, part in zip(spans, done):
                span.reshape(k, w)[...] = part
            return
        first, base, quad = c - skip, spans[0], np.empty(k * w)
        base.reshape(k, w)[...] = done[0]  # contiguous, for _mix
        quad.reshape(k, w)[...] = done[1]
        for span, (a, b) in zip(spans[1:], mix_out[1:]):  # before base is mixed in place
            np.add(_mix(base, a, span, first), _mix(quad, b, np.empty(k * w), first), out=span)
        a, b = mix_out[0]
        np.add(_mix(base, a, base, first), _mix(quad, b, quad, first), out=base)

    tail = np.zeros((rows, m - 1))  # the last frame's so far, not yet added
    padded = _Rows(source, mix_in, n_frames * step)
    for first, block in _framed(padded, step, step, transform, rows * n_fft):
        y = by_row(block)
        y[:, 0, : m - 1] += tail
        tail[...] = y[:, -1, step:]
        emit(y[:, :, :step], first * step)
    emit(tail[:, None, :], n_frames * step)
    return [_finite(row[skip : skip + n]) for row in full]


@dataclass(frozen=True)
class _Rows:
    """The filter's input, and ``measure``'s core: ``source`` from ``offset`` on,
    read by ``_read``, times ``table`` (``_mix`` from the span's first index)
    or as it is; zeros after its end, to ``length`` samples."""

    source: object
    table: np.ndarray | None
    length: int
    offset: int = 0

    def __len__(self) -> int:
        return self.length

    def _read(self, start: int, stop: int) -> np.ndarray:
        x = self.source._read(self.offset + start, min(self.offset + stop, len(self.source)))
        if self.table is not None:
            x = _mix(x, self.table, np.empty(x.size), start)
        return x if x.size == stop - start else np.concatenate((x, np.zeros(stop - start - x.size)))


def _cpu_count() -> int:  # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _splits(points: int) -> bool:  # a worker takes every other block: two CPUs, 2 * _FFT_POINTS
    return _cpu_count() >= 2 and points >= 2 * _FFT_POINTS


def _framed(source, frame_len, hop, reduce, width, window=None, pad=False):
    """Yield (first frame, its rows) per block of the frames of ``source``
    (``frame_len`` long, ``hop`` apart along the last axis of what ``_read``
    returns, times ``window`` if given), in block order, once
    ``reduce(frames, out=)`` has put the block's ``width`` results per frame
    in ``out``. A trailing remainder shorter than a frame is dropped, or with
    ``pad`` (and ``hop == frame_len``) is a short last frame. A block,
    ``source._read`` of its span, is one run of ``_BLOCK_SAMPLES // max(2 *
    width, frame_len)`` frames, or ``// max(2 * width, 2 * frame_len)`` under
    a window (whose copies are as large). When ``_splits`` holds for all the
    frames' samples or results, whichever are more, and there are two blocks
    or more, one worker thread takes every other block for the whole call.
    Each thread reads, windows and reduces its blocks into rows of its own
    buffer, reused once the consumer has moved past them; the worker is
    joined before the generator ends, raises or is closed. The rows depend
    on neither the CPUs nor the source."""
    n = len(source)
    frames = -(-n // hop) if pad else max(0, (n - frame_len) // hop + 1)
    step = max(1, _BLOCK_SAMPLES // max(2 * width, (1 + (window is not None)) * frame_len))
    firsts = range(0, frames, step)

    def fill(first, rows):
        k = min(step, frames - first)
        chunk = source._read(first * hop, min(n, (first + k - 1) * hop + frame_len))
        whole = (chunk.shape[-1] - frame_len) // hop + 1  # k, or k - 1 before a padded tail
        if whole:
            view = np.ndarray(chunk.shape[:-1] + (whole, frame_len), chunk.dtype, chunk, 0,
                              chunk.strides[:-1] + (hop * chunk.itemsize, chunk.itemsize))
            reduce(view if window is None else view * window, out=rows[:whole])
        if k > whole:  # the padded tail, the block's last frame
            reduce(chunk[..., None, whole * hop :], out=rows[whole:k])
        return rows[:k]

    worker = None
    if len(firsts) >= 2 and _splits(frames * max(width, frame_len)):
        done, free = queue.SimpleQueue(), queue.SimpleQueue()

        def work():  # blocks 1, 3, 5, ...; False from ``free`` stops it early
            try:
                rows = np.empty((step, width))
                for first in firsts[1::2]:
                    done.put(fill(first, rows))
                    if not free.get():
                        return
            except BaseException as exc:
                done.put(exc)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
    rows = np.empty((min(step, frames), width))
    try:
        for i, first in enumerate(firsts):
            if worker is None or i % 2 == 0:
                yield first, fill(first, rows)
                continue
            got = done.get()
            if isinstance(got, BaseException):
                raise got
            yield first, got
            free.put(True)
    finally:
        if worker is not None:
            free.put(False)
            worker.join()


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
    return SampleBuffer._adopt(_finite(np.fft.irfft(spectrum, n)), signal.sample_rate_hz)


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
    _taper(w, alpha)  # 1.0 * ramp == ramp
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
    phase = _phase(freq_hz, rate_hz, np.arange(min(n, -(-_CARRIER_TABLE // q) * q)))
    return np.cos(phase), np.sin(phase)


def _phase(freq_hz: float, rate_hz: float, k: np.ndarray) -> np.ndarray:
    """The carrier's phase 2 * pi * freq * k / rate at the integers ``k``, as
    ``_carrier`` reduces it: (2 * pi / rate) * fmod(k * freq, rate)."""
    phase = np.fmod(k * float(freq_hz), rate_hz)
    phase *= 2.0 * np.pi / rate_hz
    return phase


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

    Output j = q * up + r reads x[q * down + m] for the m of phase r, so a
    group of phases is one dense tap matrix (``_resample_plan``, shared by
    every call with the same key) applied to input rows that step ``down``
    samples per period.
    """
    n_out = -(-len(x) * up // down)
    # Only phases that produce an output are planned: min(up, n_out) of them.
    phases, periods = min(up, n_out), -(-n_out // up)
    lo, hi, groups = _resample_plan(up, down, phases)
    padded = np.zeros(max(len(x), (periods - 1) * down + hi + 1) - lo)
    padded[-lo : len(x) - lo] = x
    out = np.empty((periods, phases))
    for r0, start, matrix in groups:
        width, g = matrix.shape
        rows = sliding_window_view(padded[start : start + (periods - 1) * down + width], width)
        rows = rows[::down]
        for s in range(0, periods, _RESAMPLE_ROWS):
            np.matmul(rows[s : s + _RESAMPLE_ROWS], matrix,
                      out=out[s : s + _RESAMPLE_ROWS, r0 : r0 + g])
    return out.reshape(-1)[:n_out]


@functools.lru_cache(maxsize=_RESAMPLE_PLANS)
def _resample_plan(up: int, down: int, phases: int):
    """(lo, hi, groups) for ``_polyphase``: the first and last input offsets
    that the first ``phases`` phases read (lo <= 0 is the zero pre-pad), and
    per group of phases (r0, its rows' first padded index, its read-only tap
    matrix).

    The filter is resample_poly's: a Kaiser (beta = 5) windowed sinc of
    2 * half + 1 taps, half = 10 * max(up, down), cut off at the lower
    Nyquist, scaled to unit DC gain and then by ``up``. With its zero pre-pad
    the output lands centred on the filter, so output j is
    sum_i h[half + i * up - j * down] * x[i] (Crochiere & Rabiner, *Multirate
    Digital Signal Processing*, 1983).
    """
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
    # g phases read about L + g * down / up inputs (L taps per phase), so
    # g = up * L / down keeps a tap matrix about 2L wide.
    group = min(phases, -(-up * (2 * half // up + 1) // down))
    lo = -(half // up)  # first input offset of phase 0; the zero pad covers it
    hi = ((phases - 1) * down + half) // up
    groups = []
    for r0 in range(0, phases, group):
        r = np.arange(r0, min(r0 + group, phases))
        first = -((half - r0 * down) // up)
        width = (r[-1] * down + half) // up - first + 1
        lag = np.abs(np.arange(first, first + width)[:, None] * up - r * down)
        matrix = taps[np.minimum(lag, half + 1)]
        matrix.flags.writeable = False
        groups.append((r0, first - lo, matrix))
    return lo, hi, tuple(groups)


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


def resample(signal: SampleBuffer | PcmClip | WavFile, new_rate_hz: float) -> SampleBuffer:
    """Band-limited rational resampling (polyphase Kaiser-windowed sinc).

    The up/down factors are the exact ratio of the two rates in lowest terms,
    so the output really is at ``new_rate_hz``. The filter is a Kaiser
    (beta = 5) windowed sinc of 20 * max(up, down) + 1 taps, cut off at the
    lower of the two Nyquist rates, and the output equals
    ``scipy.signal.resample_poly`` to rounding (about 1e-15) in length and
    alignment: ``resampled_length`` samples, the first at the first input's
    time. Content below 0.45 * min(old, new) rate survives within 0.5 dB.
    The filter's tap matrices are designed once per (up, down, phases) and
    kept for the latest ``_RESAMPLE_PLANS`` keys, so a process that
    resamples the same rate pair again skips the design. Any span source is
    read whole by ``_read``; a same-rate ``SampleBuffer`` shares its samples.
    BadRate is raised, at any length, when either factor exceeds
    ``MAX_RESAMPLE_FACTOR`` or ``new_rate_hz`` is not positive and finite.
    """
    up, down = _factors(signal.sample_rate_hz, new_rate_hz)
    x = signal._read(0, len(signal))  # a SampleBuffer's is a view, finite already
    if up == down or x.size == 0:
        return SampleBuffer._adopt(x, new_rate_hz)
    return SampleBuffer._adopt(_finite(_polyphase(x, up, down)), new_rate_hz)
