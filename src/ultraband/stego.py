"""Hiding a high-band payload inside the silent stretches of a host clip.

The host is scanned in short frames for regions whose RMS sits under a
threshold; the payload is mixed into the start of the longest such region.
Because the payload lives above 16 kHz and the host is quiet there anyway,
the audible band of the host barely moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analysis import true_runs
from .demodulator import recovered_bandwidth
from .errors import BadArgument, EmptySignal, NoRoom, RateTooLow
from .kernels import resample
from .wavio import SampleBuffer, read_wav, to_float, to_pcm, write_wav

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
    host: SampleBuffer,
    rms_threshold: float = RMS_THRESHOLD,
    frame_ms: float = SILENCE_FRAME_MS,
    min_region_ms: float = MIN_REGION_MS,
) -> SilenceMap:
    """Locate stretches of the host quieter than ``rms_threshold``.

    The host is cut into ``frame_ms`` blocks (a trailing partial block
    counts too, so an all-silent file yields one region spanning every
    sample); consecutive quiet blocks merge into regions, and regions
    shorter than ``min_region_ms`` are dropped.
    """
    if len(host) == 0:
        raise EmptySignal("cannot scan an empty host")
    if rms_threshold <= 0:
        raise BadArgument(f"rms_threshold {rms_threshold} must be positive")
    if frame_ms <= 0 or min_region_ms <= 0:
        raise BadArgument("frame_ms and min_region_ms must be positive")

    rate = host.sample_rate_hz
    frame_len = max(1, int(round(frame_ms * rate / 1000.0)))
    n = len(host)

    # Per-block mean square; the full blocks as rows so each row sums the
    # way np.mean sums a lone block, then the trailing partial block.
    power = host.samples**2
    full = n // frame_len
    mean_sq = np.mean(power[: full * frame_len].reshape(full, frame_len), axis=1)
    if n % frame_len:
        mean_sq = np.append(mean_sq, np.mean(power[full * frame_len :]))
    starts, ends = true_runs(np.sqrt(mean_sq) < rms_threshold)
    regions = zip((starts * frame_len).tolist(), np.minimum(ends * frame_len, n).tolist())

    min_samples = min_region_ms * rate / 1000.0
    kept = tuple(r for r in regions if r[1] - r[0] >= min_samples)
    return SilenceMap(regions=kept)


def _mix(
    host: SampleBuffer, payload: SampleBuffer, silence: SilenceMap, gain: float
) -> Tuple[SampleBuffer, int, int]:
    """``embed``, also returning the [start, end) span the payload went into."""
    if len(host) == 0 or len(payload) == 0:
        raise EmptySignal("host and payload must be nonempty")
    if not 0.0 < gain <= 1.0:
        raise BadArgument(f"gain {gain} outside (0, 1]")

    payload_top = recovered_bandwidth(payload)
    if host.sample_rate_hz < 2.0 * payload_top:
        raise RateTooLow(
            f"host rate {host.sample_rate_hz} Hz cannot carry content up to "
            f"{payload_top:.0f} Hz"
        )
    fitted = resample(payload, host.sample_rate_hz)

    start, region_end = silence.longest()
    if region_end - start < len(fitted):
        raise NoRoom(
            f"longest silent region holds {region_end - start} samples, "
            f"payload needs {len(fitted)}"
        )

    end = start + len(fitted)
    out = host.samples.copy()
    out[start:end] = np.clip(out[start:end] + gain * fitted.samples, -1.0, 1.0)
    return SampleBuffer(out, host.sample_rate_hz), start, end


def embed(
    host: SampleBuffer,
    payload: SampleBuffer,
    silence: SilenceMap,
    gain: float = GAIN,
) -> SampleBuffer:
    """Mix ``gain * payload`` into the start of the longest silent region.

    The payload is resampled to the host rate first. Samples outside the
    insertion span are returned bit-identical; the mixed span is clamped to
    [-1, 1]. Raises RateTooLow when the host rate cannot represent the
    payload's band and NoRoom when no region is long enough.
    """
    return _mix(host, payload, silence, gain)[0]


def embed_file(
    host_path,
    payload_path,
    out_path,
    gain: float = GAIN,
    rms_threshold: float = RMS_THRESHOLD,
    frame_ms: float = SILENCE_FRAME_MS,
    min_region_ms: float = MIN_REGION_MS,
) -> dict:
    """File-level embed: returns a report dict describing what went where."""
    host = to_float(read_wav(host_path), channel=0)
    payload = to_float(read_wav(payload_path), channel=0)
    silence = find_silence(host, rms_threshold, frame_ms, min_region_ms)
    mixed, start, end = _mix(host, payload, silence, gain)
    write_wav(out_path, to_pcm(mixed))

    rate = host.sample_rate_hz

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
