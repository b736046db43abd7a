"""Spectral measurement, high-band detection, and spectrogram rendering.

Band energies are Parseval-consistent: the per-bin values of one full-band
query sum to the time-domain energy, and any disjoint partition of
[0, Nyquist] sums to the same total. Bands are half-open [lo, hi) except
that a band reaching Nyquist also claims the Nyquist bin, which is what
makes partitions exact.

``measure`` is Welch's averaged modified periodogram (P. D. Welch, IEEE Trans.
Audio Electroacoust. 15(2), 1967): 8192-point Hann segments, 50% overlap,
summed and scaled so the bins add up to the measured samples' energy; a
shorter signal is one Hann frame of its own length. ``measure``, ``detect``
and ``stft`` take their frames from one helper, a block of frames at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadArgument, BadBand, EmptySignal, IoFailure, SignalTooShort
from .kernels import BAND_HZ, CARRIER_HZ, check_band, tukey_window
from .wavio import SampleBuffer

if TYPE_CHECKING:  # pragma: no cover
    from .modulator import ModulationConfig

DB_FLOOR = -120.0

#: Reference band used by the detector: where ordinary speech content lives.
SPEECH_BAND = (300.0, 8000.0)

#: Detector frame length; frames overlap by half.
FRAME_MS = 50.0

#: Welch segment of ``measure``; segments overlap by half.
WELCH_SEGMENT = 8192

#: Samples framed per block: bounds the (frames x bins) arrays held at once.
_BLOCK_SAMPLES = 1 << 20

_EPS = 1e-30


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


def _weighted_power(samples: np.ndarray, n_fft: Optional[int] = None) -> np.ndarray:
    """Per-bin energies of an rfft such that their sum equals sum(x**2).

    ``n_fft`` (default: the signal length) zero-pads the transform; the
    bins are then ``rfftfreq(n_fft)`` and the sum still equals sum(x**2).
    """
    n_fft = samples.shape[-1] if n_fft is None else n_fft
    spectrum = np.fft.rfft(samples, n=n_fft)
    power = np.abs(spectrum) ** 2
    weights = np.full(power.shape[-1], 2.0)
    weights[0] = 1.0
    if n_fft % 2 == 0:
        weights[-1] = 1.0
    return weights * power / n_fft


def _frame_blocks(samples: np.ndarray, frame_len: int, hop: int, window=None):
    """Yield the frames of ``samples`` (``frame_len`` long, ``hop`` apart, a
    trailing remainder shorter than a frame dropped), times ``window`` when
    given, as consecutive (frames x frame_len) blocks of at most
    ``_BLOCK_SAMPLES`` samples (at least one frame)."""
    frames = sliding_window_view(samples, frame_len)[::hop]
    step = max(1, _BLOCK_SAMPLES // frame_len)
    for start in range(0, frames.shape[0], step):
        block = frames[start : start + step]
        yield block if window is None else block * window


def _band_mask(freqs: np.ndarray, lo: float, hi: float, nyquist: float) -> np.ndarray:
    mask = (freqs >= lo) & (freqs < hi)
    if hi >= nyquist * (1.0 - 1e-12):
        mask |= freqs >= hi
    return mask


def stft(
    signal: SampleBuffer, frame_len: int = 2048, hop: int = 1024, alpha: float = 1.0
) -> Spectrogram:
    """Short-time spectrum in dB full scale, each frame under a Tukey window
    of taper fraction ``alpha`` (1 is a Hann window).

    Frame count is ``floor((len - frame_len) / hop) + 1``; a trailing
    remainder shorter than one frame is dropped. A full-scale sine lands at
    about 0 dB in its bin; silence sits exactly on the -120 dB floor.
    """
    if frame_len < 16:
        raise BadArgument(f"frame_len {frame_len} must be >= 16")
    if not 0 < hop <= frame_len:
        raise BadArgument(f"hop {hop} must be in (0, frame_len]")
    if len(signal) < frame_len:
        raise SignalTooShort(f"{len(signal)} samples, need at least {frame_len}")
    w = tukey_window(frame_len, alpha)

    spectra = np.concatenate(
        [np.abs(np.fft.rfft(b, axis=1)) for b in _frame_blocks(signal.samples, frame_len, hop, w)]
    )
    full_scale = w.sum() / 2.0
    floor_mag = full_scale * 10.0 ** (DB_FLOOR / 20.0)
    mags_db = 20.0 * np.log10(np.maximum(spectra, floor_mag) / full_scale)

    starts = np.arange(spectra.shape[0]) * hop
    return Spectrogram(
        frame_times=(starts + frame_len / 2.0) / signal.sample_rate_hz,
        bin_freqs=np.fft.rfftfreq(frame_len, d=1.0 / signal.sample_rate_hz),
        magnitudes_db=mags_db,
        sample_rate_hz=signal.sample_rate_hz,
    )


def band_energy(signal: SampleBuffer, lo_hz: float, hi_hz: float) -> float:
    """Signal energy (sum of squares) inside [lo_hz, hi_hz).

    A band whose upper edge reaches Nyquist includes the Nyquist bin, so a
    disjoint partition of [0, rate/2] sums exactly to the total energy.
    """
    if len(signal) == 0:
        raise EmptySignal("no energy in an empty signal")
    nyquist = signal.sample_rate_hz / 2.0
    if not (0.0 <= lo_hz < hi_hz and hi_hz <= nyquist * (1.0 + 1e-12)):
        raise BadBand(f"band [{lo_hz}, {hi_hz}] Hz invalid for rate {signal.sample_rate_hz} Hz")
    freqs = np.fft.rfftfreq(len(signal), d=1.0 / signal.sample_rate_hz)
    energy = _weighted_power(signal.samples)
    return float(energy[_band_mask(freqs, lo_hz, hi_hz, nyquist)].sum())


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


def measure(signal: SampleBuffer, config: "ModulationConfig") -> BandMetrics:
    """Summarize how well a signal stays inside its intended high band.

    Metrics are computed over the central taper-free region (the Tukey
    ramps are excluded) so they describe steady-state behavior. Its spectrum
    is a Welch estimate: ``WELCH_SEGMENT``-point Hann segments with 50%
    overlap (a trailing remainder shorter than one hop is dropped), their
    per-bin energies summed and scaled so the bins add up to the region's
    energy. A region shorter than one segment is one Hann frame of its own
    length.

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
    core = signal.samples[edge : n - edge] if n - 2 * edge >= 16 else signal.samples
    rate = signal.sample_rate_hz
    nyquist = rate / 2.0

    seg = min(WELCH_SEGMENT, core.size)
    blocks = _frame_blocks(core, seg, max(1, seg // 2), np.hanning(seg))
    energy = sum(_weighted_power(block).sum(axis=0) for block in blocks)
    framed = energy.sum()
    energy *= float(np.dot(core, core)) / framed if framed > 0.0 else 0.0
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

    return BandMetrics(
        inband_energy_db=float(inband_db),
        leakage_below_carrier_db=float(leakage_db),
        sideband_suppression_db=suppression_db,
        occupancy_lo_hz=occ_lo,
        occupancy_hi_hz=occ_hi,
    )


def _tone_pair_suppression(
    freqs: np.ndarray,
    energy: np.ndarray,
    total: float,
    carrier: float,
    band_top: float,
    half_width: float = 50.0,
) -> Optional[float]:
    """Image-to-line level in dB for a dominant upper-band tone, else None.

    "Dominant" means at least half the signal energy sits within +/-50 Hz
    of the strongest bin above the carrier. The image is looked for at the
    mirror position below the carrier.
    """
    if total <= 0.0:
        return None
    search = (freqs > carrier + half_width) & (freqs <= band_top)
    if not search.any():
        return None
    peak_idx = int(np.flatnonzero(search)[np.argmax(energy[search])])
    f_line = float(freqs[peak_idx])
    near_line = np.abs(freqs - f_line) <= half_width
    if energy[near_line].sum() < 0.5 * total:
        return None
    offset = f_line - carrier
    f_image = carrier - offset
    if f_image <= 0.0:
        return None
    near_image = np.abs(freqs - f_image) <= half_width
    if not near_image.any():
        return None
    line_e = float(energy[near_line].max())
    image_e = float(energy[near_image].max())
    value = 10.0 * np.log10((image_e + _EPS) / (line_e + _EPS))
    return float(value) if value <= 0.0 else None


def detect(
    signal: SampleBuffer,
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
    """
    if ratio_threshold <= 0:
        raise BadArgument(f"ratio_threshold {ratio_threshold} must be positive")
    if sustain_ms <= 0:
        raise BadArgument(f"sustain_ms {sustain_ms} must be positive")
    rate = signal.sample_rate_hz
    check_band(carrier_hz, band_hz, rate, BadBand, "band_hz")
    nyquist = rate / 2.0
    frame_len = max(2, int(round(FRAME_MS * rate / 1000.0)))
    hop = max(1, frame_len // 2)
    if len(signal) < frame_len:
        return DetectionVerdict(False, 0.0, 0.0, np.zeros(0, dtype=bool))

    freqs = np.fft.rfftfreq(frame_len, d=1.0 / rate)
    attack = _band_mask(freqs, carrier_hz, min(carrier_hz + band_hz, nyquist), nyquist)
    speech = _band_mask(freqs, SPEECH_BAND[0], min(SPEECH_BAND[1], nyquist), nyquist)
    sums = [
        (power[:, attack].sum(axis=1), power[:, speech].sum(axis=1))
        for power in map(_weighted_power, _frame_blocks(signal.samples, frame_len, hop))
    ]
    e_attack, e_speech = (np.concatenate(parts) for parts in zip(*sums))
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
    db = np.clip(spec.magnitudes_db, DB_FLOOR, 0.0)
    img = np.flipud(db.T)
    pixels = np.round((img - DB_FLOOR) / -DB_FLOOR * 255.0).astype(np.uint8)
    height, width = pixels.shape
    try:
        with open(out_path, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {out_path}: {exc}") from exc
