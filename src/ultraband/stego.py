"""Hiding a high-band payload inside the silent stretches of a host clip.

The host is scanned in short frames for regions whose RMS sits under a
threshold; the payload is mixed into the start of the longest such region.
Because the payload lives above 16 kHz and the host is quiet there anyway,
the audible band of the host barely moves. Outside the insertion span the
host is returned, or written, exactly as it came in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analysis import recovered_bandwidth, true_runs
from .errors import BadArgument, EmptySignal, NoRoom, RateTooLow, check_fraction, check_positive
from .kernels import _framed, resample, resampled_length
from .wavio import PcmClip, SampleBuffer, WavFile, open_wav, to_pcm, write_wav

#: Defaults: the payload mix gain, and the silence scan's RMS threshold,
#: frame length and shortest kept region.
GAIN = 0.5
RMS_THRESHOLD = 0.01
SILENCE_FRAME_MS = 20.0
MIN_REGION_MS = 500.0


@dataclass(frozen=True)
class SilenceMap:
    """Silent regions of a host signal as [start, end) sample spans."""

    regions: Tuple[Tuple[int, int], ...]

    def longest(self) -> Tuple[int, int]:
        """Longest region; earliest wins a tie. Raises NoRoom when empty."""
        if not self.regions:
            raise NoRoom("no silent region found")
        return max(self.regions, key=lambda span: (span[1] - span[0], -span[0]))


def find_silence(
    host: SampleBuffer | PcmClip | WavFile,
    rms_threshold: float = RMS_THRESHOLD,
    frame_ms: float = SILENCE_FRAME_MS,
    min_region_ms: float = MIN_REGION_MS,
) -> SilenceMap:
    """Locate stretches of the host quieter than ``rms_threshold``.

    The host is cut into ``frame_ms`` blocks, at most the whole host (a
    trailing partial block counts too, so an all-silent file yields one
    region spanning every sample); consecutive quiet blocks merge into
    regions, and regions shorter than ``min_region_ms`` are dropped. Each
    setting must be positive and finite (BadArgument). The host is any span
    source (``SampleBuffer``, ``PcmClip``, ``WavFile``), read with ``to_float``'s bits.
    """
    if len(host) == 0:
        raise EmptySignal("cannot scan an empty host")
    check_positive(rms_threshold, BadArgument, "rms_threshold")
    check_positive(frame_ms, BadArgument, "frame_ms")
    check_positive(min_region_ms, BadArgument, "min_region_ms")

    rate = host.sample_rate_hz
    n = len(host)
    frame_len = max(1, int(round(min(frame_ms * rate / 1000.0, n))))

    # Per-block mean square, each row summed as np.mean sums a lone block;
    # the trailing partial block is _framed's short last frame.
    mean_sq = np.empty((-(-n // frame_len), 1))
    for first, rows in _framed(host, frame_len, frame_len, lambda frames, out: np.mean(
            frames**2, axis=1, keepdims=True, out=out), 1, pad=True):
        mean_sq[first : first + len(rows)] = rows  # rows is reused for the next block
    starts, ends = true_runs(np.sqrt(mean_sq[:, 0]) < rms_threshold)
    regions = zip((starts * frame_len).tolist(), np.minimum(ends * frame_len, n).tolist())

    min_samples = min_region_ms * rate / 1000.0
    kept = tuple(r for r in regions if r[1] - r[0] >= min_samples)
    return SilenceMap(regions=kept)


def embed(
    host: SampleBuffer,
    payload: SampleBuffer,
    silence: SilenceMap,
    gain: float = GAIN,
) -> SampleBuffer:
    """Mix ``gain * payload`` into the start of the longest silent region.

    The payload is resampled to the host rate once it is known to fit.
    Samples outside the insertion span are returned bit-identical; the mixed
    span is clamped to [-1, 1]. Raises RateTooLow when the host rate cannot
    represent the payload's band and NoRoom when no region is long enough.
    """
    (start, end), mixed = _embed(host, payload, silence, gain)
    out = host.samples.copy()
    out[start:end] = mixed.samples
    return SampleBuffer._adopt(out, host.sample_rate_hz)


def _embed(host: SampleBuffer | WavFile, payload: SampleBuffer | WavFile, silence: SilenceMap,
           gain: float):
    """The [start, end) span that the payload fills, and ``embed``'s samples
    there: the host's span plus ``gain`` times the resampled payload, clipped.
    Of the host only that span is read, and the payload whole only if it fits."""
    if len(host) == 0 or len(payload) == 0:
        raise EmptySignal("host and payload must be nonempty")
    check_fraction(gain, BadArgument, "gain")

    rate = float(host.sample_rate_hz)
    payload_top = recovered_bandwidth(payload)
    if rate < 2.0 * payload_top:
        raise RateTooLow(f"host rate {rate} Hz cannot carry content up to {payload_top:.0f} Hz")
    length = resampled_length(payload, rate)  # BadRate, then NoRoom, before resampling
    start, region_end = silence.longest()
    if region_end - start < length:
        raise NoRoom(f"longest silent region holds {region_end - start} samples, "
                     f"payload needs {length}")
    end = start + length
    fitted = resample(payload, rate)
    mixed = np.clip(host._read(start, end) + gain * fitted.samples, -1.0, 1.0)
    return (start, end), SampleBuffer._adopt(mixed, rate)  # fresh, clipped, finite


def embed_file(
    host_path,
    payload_path,
    out_path,
    gain: float = GAIN,
    rms_threshold: float = RMS_THRESHOLD,
    frame_ms: float = SILENCE_FRAME_MS,
    min_region_ms: float = MIN_REGION_MS,
) -> dict:
    """File-level embed; returns a report dict describing what went where. The
    host's channel 0 is written mono, as read but for the re-quantized span:
    int16, read once the payload fits. Inputs close before the output opens."""
    with open_wav(host_path) as host, open_wav(payload_path) as payload:
        silence = find_silence(host, rms_threshold, frame_ms, min_region_ms)
        (start, end), mixed = _embed(host, payload, silence, gain)
        out = host._lane(0, len(host))
    out[start:end] = to_pcm(mixed).samples
    write_wav(out_path, PcmClip._adopt(out, host.sample_rate_hz, 1))

    rate = mixed.sample_rate_hz

    def span(s: int, e: int) -> dict:
        return {"start_sample": int(s), "end_sample": int(e),
                "start_s": s / rate, "duration_s": (e - s) / rate}

    return {
        "host_rate_hz": rate,
        "gain": gain,
        "rms_threshold": rms_threshold,
        "min_region_ms": min_region_ms,
        "silent_regions": [span(s, e) for s, e in silence.regions],
        "insertion": span(start, end),
    }
