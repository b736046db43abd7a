"""Spectral measurement, high-band detection, and spectrogram rendering.

Band energies are Parseval-consistent: the per-bin values of one full-band
query sum to the time-domain energy, and any disjoint partition of
[0, Nyquist] sums to the same total. Bands are half-open [lo, hi) except
that a band reaching Nyquist also claims the Nyquist bin, which is what
makes partitions exact.

``band_energy`` and ``recovered_bandwidth`` sum the periodograms of
non-overlapping segments of at most 2**17 samples (M. S. Bartlett, Nature
161, 1948). ``measure`` is Welch's averaged modified periodogram (P. D. Welch,
IEEE Trans. Audio Electroacoust. 15(2), 1967): 8192-point Hann segments, 50%
overlap, summed and scaled so the bins add up to the measured samples'
energy; a shorter signal is one Hann frame of its own length. These spectra,
``detect``, ``stft`` and ``find_silence`` run through ``kernels._framed``, the
block loop of the overlap-add filter too: it frames a source a block at a
time and hands each block's frames to a reducer; on two CPUs one worker
thread per call takes every other block. ``detect``, ``stft`` and
``measure`` also read a ``PcmClip`` or an open ``WavFile`` that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from . import kernels
from .errors import (BadArgument, BadBand, EmptySignal, SignalTooShort, check_count, check_positive,
                     opened)
from .kernels import (_FFT_POINTS, BAND_HZ, CARRIER_HZ, _framed, _Rows, check_band, next_fast_len,
                      tukey_window)
from .wavio import PcmClip, SampleBuffer, WavFile

if TYPE_CHECKING:  # pragma: no cover
    from .modulator import ModulationConfig

DB_FLOOR = -120.0

#: Reference band used by the detector: where ordinary speech content lives.
SPEECH_BAND = (300.0, 8000.0)

#: Detector frame length; frames overlap by half.
FRAME_MS = 50.0

#: Welch segment of ``measure``; segments overlap by half.
WELCH_SEGMENT = 8192

_EPS = 1e-30

# Half-width, in Hz, of the tone line and of its image that ``measure``'s suppression reads.
_TONE_HALF_WIDTH_HZ = 50.0


@dataclass(frozen=True)
class Spectrogram:
    """STFT magnitudes in dB relative to full scale, floored at -120 dB."""

    frame_times: np.ndarray  # seconds, frame centers
    bin_freqs: np.ndarray  # Hz
    magnitudes_db: np.ndarray  # shape (n_frames, n_bins)
    sample_rate_hz: float


@dataclass(frozen=True)
class BandMetrics:
    """One-line spectral summary of a (presumably modulated) signal.

    Relative quantities (leakage, suppression) are nonpositive by
    construction; suppression is None when no dominant tone pair exists to
    measure.
    """

    inband_energy_db: float
    leakage_below_carrier_db: float
    sideband_suppression_db: Optional[float]
    occupancy_lo_hz: float
    occupancy_hi_hz: float


@dataclass(frozen=True)
class DetectionVerdict:
    """Per-frame flags plus the overall call on a clip."""

    flagged: bool
    score: float  # fraction of frames over threshold
    sustained_ms: float  # longest consecutive run of flagged frames
    frame_flags: np.ndarray


def _weighted_power(samples: np.ndarray, n_fft: Optional[int] = None, out=None) -> np.ndarray:
    """Per-bin energies of an rfft zero-padded to ``n_fft`` (default: the
    signal length), such that their sum equals sum(x**2); into ``out`` if given."""
    n_fft = samples.shape[-1] if n_fft is None else n_fft
    # One float array beside the transform, worked in place: |X|**2, then
    # twice every bin but DC and (for an even n_fft) Nyquist, then / n_fft.
    power = np.abs(np.fft.rfft(samples, n=n_fft), out=out)
    power **= 2
    power[..., 1 : power.shape[-1] - (n_fft % 2 == 0)] *= 2.0
    power /= n_fft
    return power


def _spectrum(signal: SampleBuffer) -> tuple:
    """(freqs, energy): the summed ``_weighted_power`` of consecutive segments
    of n_fft = min(2**17, ``next_fast_len(n)``) samples, the last one
    zero-filled to n_fft (``_Rows``). The bins sum to sum(x**2); n <= n_fft is
    one transform. Segments are ``_framed``'s frames, a block each at 2**17
    (``_summed_power``), so a short last one is read and transformed beside
    the one before it on two CPUs."""
    n_fft = min(_FFT_POINTS, next_fast_len(len(signal)))
    whole = _Rows(signal, None, -(-len(signal) // n_fft) * n_fft)
    energy = _summed_power(whole, n_fft, n_fft)  # before the freqs: a smaller peak
    return np.fft.rfftfreq(n_fft, d=1.0 / signal.sample_rate_hz), energy


def _summed_power(source, seg: int, hop: int, window=None) -> np.ndarray:
    """``_weighted_power`` of ``_framed``'s frames of ``source`` (``seg`` long, ``hop``
    apart, times ``window``), the rows added one by one in frame order."""
    energy = np.zeros(seg // 2 + 1)
    for _, power in _framed(source, seg, hop, partial(_weighted_power, n_fft=seg), seg // 2 + 1,
                            window):
        for row in power:  # in place: a new sum per row keeps a second array
            energy += row
    return energy


def _band_mask(freqs: np.ndarray, lo: float, hi: float, nyquist: float) -> np.ndarray:
    mask = (freqs >= lo) & (freqs < hi)
    if hi >= nyquist * (1.0 - 1e-12):
        mask |= freqs >= hi
    return mask


def stft(
    signal: Union[SampleBuffer, WavFile], frame_len: int = 2048, hop: int = 1024, alpha: float = 1.0
) -> Spectrogram:
    """Short-time spectrum in dB full scale, each frame under a Tukey window
    of taper fraction ``alpha`` (1 is a Hann window).

    Frame count is ``floor((len - frame_len) / hop) + 1``; a trailing
    remainder shorter than one frame is dropped. A full-scale sine lands at
    about 0 dB in its bin; silence sits exactly on the -120 dB floor.
    ``frame_len`` is a whole number >= 16 and ``hop`` one in [1, frame_len]
    (BadArgument). ``signal`` may be an open ``WavFile``, read a block at a
    time; the result equals ``stft(to_float(read_wav(p)))``.
    """
    frame_len = check_count(frame_len, BadArgument, "frame_len", 16)
    hop = check_count(hop, BadArgument, "hop", 1, frame_len)
    if len(signal) < frame_len:
        raise SignalTooShort(f"{len(signal)} samples, need at least {frame_len}")
    w = tukey_window(frame_len, alpha)
    full_scale = w.sum() / 2.0
    floor_mag = full_scale * 10.0 ** (DB_FLOOR / 20.0)
    mags_db = np.empty(((len(signal) - frame_len) // hop + 1, frame_len // 2 + 1))
    for first, mags in _framed(signal, frame_len, hop, lambda frames, out: np.abs(
            np.fft.rfft(frames), out=out), mags_db.shape[1], w):
        db = np.maximum(mags, floor_mag, out=mags_db[first : first + len(mags)])
        db /= full_scale
        np.log10(db, out=db)
        db *= 20.0
    starts = np.arange(mags_db.shape[0]) * hop
    return Spectrogram(
        frame_times=(starts + frame_len / 2.0) / signal.sample_rate_hz,
        bin_freqs=np.fft.rfftfreq(frame_len, d=1.0 / signal.sample_rate_hz),
        magnitudes_db=mags_db,
        sample_rate_hz=float(signal.sample_rate_hz),
    )


def band_energy(signal: SampleBuffer, lo_hz: float, hi_hz: float) -> float:
    """Signal energy (sum of squares) inside [lo_hz, hi_hz), from the
    segmented spectrum ``_spectrum``. A band whose upper edge reaches Nyquist
    includes the Nyquist bin, so a disjoint partition of [0, rate/2] sums to
    the total energy."""
    if len(signal) == 0:
        raise EmptySignal("no energy in an empty signal")
    nyquist = signal.sample_rate_hz / 2.0
    if not (0.0 <= lo_hz < hi_hz and hi_hz <= nyquist * (1.0 + 1e-12)):
        raise BadBand(f"band [{lo_hz}, {hi_hz}] Hz invalid for rate {signal.sample_rate_hz} Hz")
    freqs, energy = _spectrum(signal)
    return float(energy[_band_mask(freqs, lo_hz, hi_hz, nyquist)].sum())


def recovered_bandwidth(signal: SampleBuffer | PcmClip | WavFile) -> float:
    """Smallest frequency below which 95% of the signal's energy lies, in the
    segmented spectrum that ``band_energy`` sums (``_spectrum``).

    Useful as a one-number judgment of how much of the original band
    survived a modulate/transmit/demodulate trip. A ``PcmClip``'s or an open
    ``WavFile``'s channel 0 is read a block at a time, with the bits of
    ``to_float``'s samples and no float copy of the clip.
    """
    if len(signal) == 0:
        raise EmptySignal("no bandwidth for an empty signal")
    (bandwidth,) = _occupancy(*_spectrum(signal), 0.95)
    return bandwidth


def _occupancy(freqs: np.ndarray, energy: np.ndarray, *quantiles: float) -> tuple:
    """Lowest frequency at or below which each quantile of the energy lies;
    all zeros when there is no energy."""
    total = energy.sum()
    if total <= 0.0:
        return (0.0,) * len(quantiles)
    cum = np.cumsum(energy)
    return tuple(
        float(freqs[min(int(np.searchsorted(cum, q * total)), freqs.size - 1)]) for q in quantiles
    )


def measure(signal: SampleBuffer | PcmClip | WavFile, config: "ModulationConfig") -> BandMetrics:
    """Summarize how well a signal stays inside its intended high band.

    Metrics are computed over the central taper-free region (the Tukey
    ramps are excluded) so they describe steady-state behavior. Its spectrum
    is a Welch estimate: ``WELCH_SEGMENT``-point Hann segments with 50%
    overlap (a trailing remainder shorter than one hop is dropped), their
    per-bin energies summed and scaled so the bins add up to the region's
    energy. A region shorter than one segment is one Hann frame of its own
    length. ``np.hanning`` is zero at both ends, so the first and the last
    framed sample get zero weight (an impulse there reads none). Rows sum one
    at a time (``_summed_power``), the energy in ``kernels._BLOCK_SAMPLES``
    spans, in order: one CPU or two, and a ``PcmClip``, its ``WavFile`` or
    its ``to_float``, give equal bits (16-bit squares sum exactly to 2**23
    samples).

    * leakage: energy below carrier - 500 Hz relative to total energy.
    * occupancy: 5% and 95% spectral-energy quantile frequencies.
    * suppression: image-line level relative to the dominant tone line,
      when a single dominant line exists; None otherwise.

    Raises BadBand when [carrier, carrier + cutoff] does not fit under the
    signal's Nyquist frequency, as ``detect`` does.
    """
    check_band(config.carrier_hz, config.cutoff_hz, signal.sample_rate_hz, BadBand, "cutoff_hz")
    if len(signal) == 0:
        raise EmptySignal("cannot measure an empty signal")

    n = len(signal)
    edge = int(round(n * config.tukey_alpha / 2.0))
    core = _Rows(signal, None, n - 2 * edge, edge) if n - 2 * edge >= 16 else signal
    rate = signal.sample_rate_hz
    nyquist = rate / 2.0

    seg = min(WELCH_SEGMENT, len(core))
    energy = _summed_power(core, seg, max(1, seg // 2), np.hanning(seg))
    scale, span = 0.0, kernels._BLOCK_SAMPLES
    for i in range(0, len(core), span):  # in order; exact for PCM under 2**23 samples
        x = core._read(i, min(i + span, len(core)))
        scale += float(np.einsum("i,i->", x, x))
    framed = energy.sum()
    energy *= scale / framed if framed > 0.0 else 0.0
    total = float(energy.sum())
    freqs = np.fft.rfftfreq(seg, d=1.0 / rate)

    carrier = config.carrier_hz
    band_top = min(carrier + config.cutoff_hz, nyquist)
    below_edge = carrier - 500.0
    e_below = float(energy[_band_mask(freqs, 0.0, below_edge, nyquist)].sum()) if below_edge > 0 else 0.0
    e_inband = float(energy[_band_mask(freqs, carrier, band_top, nyquist)].sum())

    leakage_db = 10.0 * np.log10((e_below + _EPS) / (total + _EPS))
    inband_db = 10.0 * np.log10(e_inband + _EPS)
    occ_lo, occ_hi = _occupancy(freqs, energy, 0.05, 0.95)

    suppression_db = _tone_pair_suppression(freqs, energy, total, carrier, band_top)

    return BandMetrics(float(inband_db), float(leakage_db), suppression_db, occ_lo, occ_hi)


def _tone_pair_suppression(freqs: np.ndarray, energy: np.ndarray, total: float, carrier: float,
                           band_top: float) -> Optional[float]:
    """Image-to-line level in dB for a dominant upper-band tone, else None.

    "Dominant" means at least half the signal energy sits within +/-50 Hz
    of the strongest bin above the carrier. The image is looked for at the
    mirror position below the carrier.
    """
    if total <= 0.0:
        return None
    search = (freqs > carrier + _TONE_HALF_WIDTH_HZ) & (freqs <= band_top)
    if not search.any():
        return None
    peak_idx = int(np.flatnonzero(search)[np.argmax(energy[search])])
    f_line = float(freqs[peak_idx])
    near_line = np.abs(freqs - f_line) <= _TONE_HALF_WIDTH_HZ
    if energy[near_line].sum() < 0.5 * total:
        return None
    offset = f_line - carrier
    f_image = carrier - offset
    if f_image <= 0.0:
        return None
    near_image = np.abs(freqs - f_image) <= _TONE_HALF_WIDTH_HZ
    if not near_image.any():
        return None
    line_e = float(energy[near_line].max())
    image_e = float(energy[near_image].max())
    value = 10.0 * np.log10((image_e + _EPS) / (line_e + _EPS))
    return float(value) if value <= 0.0 else None


def detect(
    signal: Union[SampleBuffer, WavFile],
    carrier_hz: float = CARRIER_HZ,
    band_hz: float = BAND_HZ,
    ratio_threshold: float = 4.0,
    sustain_ms: float = 200.0,
) -> DetectionVerdict:
    """Flag sustained energy concentrated in [carrier, carrier + band].

    Each 50 ms frame (50% hop) is flagged when its energy in the attack
    band exceeds ``ratio_threshold`` times its energy in the 300-8000 Hz
    speech band. The clip is flagged when some consecutive run of flagged
    frames spans at least ``sustain_ms``. The score (flagged-frame
    fraction) is monotone in the embedded signal's gain.

    ``signal`` may be an open ``WavFile``; its channel 0 is then read a block
    at a time. Memory is a block and its transforms per thread. On two CPUs
    a worker thread takes every other block, and the verdict is bit-identical
    to the one-CPU path and to ``detect(to_float(read_wav(p)))``.
    """
    check_positive(ratio_threshold, BadArgument, "ratio_threshold")
    check_positive(sustain_ms, BadArgument, "sustain_ms")
    rate = signal.sample_rate_hz
    check_band(carrier_hz, band_hz, rate, BadBand, "band_hz")
    nyquist = rate / 2.0
    frame_len = max(2, int(round(FRAME_MS * rate / 1000.0)))
    hop = max(1, frame_len // 2)

    # rfftfreq's bins (k * val, bit for bit) to two past the top band edge;
    # that is every bin once a band runs to Nyquist
    spans = [(lo, min(hi, nyquist)) for lo, hi in ((carrier_hz, carrier_hz + band_hz), SPEECH_BAND)]
    top = max(hi for _, hi in spans)
    val = 1.0 / (frame_len * (1.0 / rate))
    freqs = np.arange(min(frame_len // 2 + 1, int(top / val) + 2)) * val
    # a band's energy is 2 / frame_len times re**2 + im**2 summed over its run
    # of bins; DC and Nyquist, scaled by sqrt(1/2), count once (_weighted_power)
    edges = [0, 1, -2, -1] if frame_len % 2 == 0 else [0, 1]
    masks = [_band_mask(freqs, lo, hi, nyquist) for lo, hi in spans]
    bands = [slice(2 * np.argmax(m), 2 * (np.argmax(m) + np.sum(m))) for m in masks]

    def band_sums(frames, out):  # out: a row (attack, speech) per frame
        view = np.fft.rfft(frames).view(np.float64)
        view[:, edges] *= np.sqrt(0.5)
        for e, cols in zip(out.T, bands):
            np.einsum("ij,ij->i", view[:, cols], view[:, cols], out=e)

    sums = np.empty((max(0, (len(signal) - frame_len) // hop + 1), 2))  # none in a short clip
    for first, rows in _framed(signal, frame_len, hop, band_sums, 2):
        sums[first : first + len(rows)] = rows  # rows is reused for the next block
    e_attack, e_speech = sums.T * (2.0 / frame_len)
    flags = e_attack > ratio_threshold * e_speech

    sustained = _longest_run_ms(flags, frame_len, hop, rate)
    return DetectionVerdict(
        flagged=bool(sustained >= sustain_ms),
        score=float(flags.mean()) if flags.size else 0.0,
        sustained_ms=float(sustained),
        frame_flags=flags,
    )


def true_runs(flags: np.ndarray) -> tuple:
    """Start and end indices (end exclusive) of each run of True in ``flags``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags.astype(np.int8), [0]))))
    return edges[::2], edges[1::2]


def _longest_run_ms(flags: np.ndarray, frame_len: int, hop: int, rate: float) -> float:
    starts, ends = true_runs(flags)
    if starts.size == 0:
        return 0.0
    best = int(np.max(ends - starts))
    return ((best - 1) * hop + frame_len) / rate * 1000.0


def render_spectrogram(spec: Spectrogram, out_path) -> None:
    """Write the spectrogram as a binary PGM image.

    Columns are frames (time left to right), rows are frequency bins with
    the highest frequency at the top. dB values map linearly from
    [-120, 0] onto [0, 255].
    """
    scaled = np.clip(spec.magnitudes_db, DB_FLOOR, 0.0)  # the one copy, scaled in place
    scaled -= DB_FLOOR
    scaled /= -DB_FLOOR
    scaled *= 255.0
    pixels = np.flipud(np.round(scaled, out=scaled).T).astype(np.uint8, order="C")
    height, width = pixels.shape
    with opened(out_path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels)
