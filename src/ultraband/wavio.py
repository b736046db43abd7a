"""Bit-exact 16-bit PCM WAV reading and writing.

The parser walks RIFF chunks directly instead of going through the stdlib
``wave`` module so that malformed inputs map onto precise error types and
so the writer can guarantee a canonical 44-byte header: files written here
and read back compare byte for byte.

Two value types travel through the rest of the package:

* :class:`PcmClip` -- integer samples exactly as stored on disk.
* :class:`SampleBuffer` -- float64 samples in [-1, 1] for DSP work.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    BadChannel,
    BadRate,
    IoFailure,
    NotWav,
    TruncatedFile,
    UnsupportedFormat,
    check_count,
    check_positive,
)

_HEADER = struct.Struct("<4sI4s")
_FMT_BODY = struct.Struct("<HHIIHH")
_CHUNK_HEAD = struct.Struct("<4sI")

#: Scale used when converting stored integers to floats (read direction).
READ_SCALE = 32768.0
#: Scale used when converting floats back to integers (write direction).
WRITE_SCALE = 32767.0


def _real_array(samples) -> np.ndarray:
    """``samples`` as an array; BadArgument unless it holds real numbers."""
    raw = np.asarray(samples)
    if raw.dtype.kind not in "biuf":
        raise BadArgument(f"samples must be real numbers, not {raw.dtype}")
    return raw


@dataclass(frozen=True)
class PcmClip:
    """Interleaved signed 16-bit samples plus container metadata.

    Instances are immutable; every field is validated on construction so a
    clip that exists is always writable as a legal WAV file: ``channels`` is
    a whole number in [1, 32767], so that the 16-bit block-align field holds
    2 * channels, and ``sample_rate_hz`` one in [1, 0xFFFFFFFF // (2 *
    channels)], so that the 32-bit byte-rate field holds it.
    """

    samples: np.ndarray
    sample_rate_hz: int
    channels: int = 1

    def __post_init__(self):
        raw = _real_array(self.samples)
        if raw.dtype != np.int16 and raw.size:
            if raw.dtype.kind not in "biu" and not (np.trunc(raw) == raw).all():
                raise BadArgument("samples must be whole numbers")
            if raw.max() > 32767 or raw.min() < -32768:
                raise BadArgument("samples outside the signed 16-bit range")
            raw = raw.astype(np.int16)
        arr = np.array(raw, dtype=np.int16)  # own a private copy
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        channels = check_count(self.channels, BadArgument, "channels", 1, 0xFFFF // 2)
        object.__setattr__(self, "channels", channels)
        max_rate = 0xFFFFFFFF // (2 * channels)
        rate = check_count(self.sample_rate_hz, BadRate, "sample_rate_hz", 1, max_rate)
        object.__setattr__(self, "sample_rate_hz", rate)
        if arr.size % channels:
            raise BadArgument("sample count is not a whole number of frames")

    def __eq__(self, other):
        if not isinstance(other, PcmClip):
            return NotImplemented
        return (
            self.sample_rate_hz == other.sample_rate_hz
            and self.channels == other.channels
            and np.array_equal(self.samples, other.samples)
        )

    @property
    def frames(self) -> int:
        return self.samples.size // self.channels

    @property
    def duration_s(self) -> float:
        return self.frames / self.sample_rate_hz


@dataclass(frozen=True)
class SampleBuffer:
    """Mono float64 signal with its sample rate.

    Samples must be finite; values are expected to stay within [-1, 1] by
    convention but are only clamped at integer conversion time.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.array(_real_array(self.samples), dtype=np.float64)
        if arr.ndim != 1:
            raise BadArgument("SampleBuffer holds a one-dimensional signal")
        if arr.size and not np.isfinite(arr).all():
            raise BadArgument("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        check_positive(self.sample_rate_hz, BadRate, "sample_rate_hz")
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate_hz: float) -> "SampleBuffer":
        """Take ownership of a fresh finite 1-D float64 array: no copy, no scan."""
        samples.flags.writeable = False
        buf = object.__new__(cls)
        object.__setattr__(buf, "samples", samples)
        object.__setattr__(buf, "sample_rate_hz", float(sample_rate_hz))
        return buf

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _sniff_mp3(head: bytes) -> bool:
    # ID3v2 tag or a bare MPEG frame sync; either way there is no point
    # trying to parse it as RIFF.
    if head[:3] == b"ID3":
        return True
    return len(head) >= 2 and head[0] == 0xFF and (head[1] & 0xE0) == 0xE0


def read_wav(path) -> PcmClip:
    """Read a 16-bit PCM WAV file exactly as stored.

    Unknown chunks (LIST, fact, ...) are skipped. Raises NotWav for
    non-RIFF input, UnsupportedFormat for recognizable-but-unusable audio
    such as MP3, float WAV, 0 channels or a rate that ``PcmClip`` refuses
    (0 Hz, or a byte rate past 32 bits), TruncatedFile when the container
    promises more bytes than exist, and IoFailure when the OS read fails.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if _sniff_mp3(blob[:4]):
        raise UnsupportedFormat(f"{path}: MP3 data, not PCM WAV")
    if len(blob) < 12:
        if blob[: min(len(blob), 4)] == b"RIFF"[: min(len(blob), 4)] and blob:
            raise TruncatedFile(f"{path}: shorter than a RIFF header")
        raise NotWav(f"{path}: not a RIFF/WAVE file")
    riff, riff_size, wave_id = _HEADER.unpack_from(blob, 0)
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise NotWav(f"{path}: not a RIFF/WAVE file")
    if riff_size + 8 > len(blob):
        raise TruncatedFile(f"{path}: RIFF declares {riff_size + 8} bytes, file has {len(blob)}")

    fmt = None
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = _CHUNK_HEAD.unpack_from(blob, pos)
        body_start = pos + 8
        if body_start + size > len(blob):
            raise TruncatedFile(f"{path}: chunk {cid!r} runs past end of file")
        if cid == b"fmt ":
            if size < _FMT_BODY.size:
                raise TruncatedFile(f"{path}: fmt chunk too small")
            fmt = _FMT_BODY.unpack_from(blob, body_start)
        elif cid == b"data":
            if fmt is None:
                raise NotWav(f"{path}: data chunk before fmt chunk")
            audio_format, channels, rate, _byte_rate, block_align, bits = fmt
            if audio_format != 1:
                raise UnsupportedFormat(
                    f"{path}: format code {audio_format}, only PCM (1) is supported"
                )
            if bits != 16:
                raise UnsupportedFormat(f"{path}: {bits}-bit samples, only 16-bit is supported")
            check_count(channels, UnsupportedFormat, f"{path}: channels", 1)
            if block_align != channels * 2:
                raise UnsupportedFormat(f"{path}: inconsistent channel layout")
            if size % block_align:
                raise TruncatedFile(f"{path}: data chunk is not a whole number of frames")
            samples = np.frombuffer(blob, dtype="<i2", count=size // 2, offset=body_start)
            try:
                return PcmClip(samples=samples, sample_rate_hz=rate, channels=channels)
            except BadRate as exc:
                raise UnsupportedFormat(f"{path}: {exc}") from exc
        # skip anything else; odd-sized chunks carry a pad byte
        pos = body_start + size + (size & 1)
    raise TruncatedFile(f"{path}: no data chunk found")


def write_wav(path, clip: PcmClip) -> None:
    """Write ``clip`` with a canonical 44-byte header (PCM, fmt size 16)."""
    payload = clip.samples.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,
        clip.channels,
        clip.sample_rate_hz,
        clip.sample_rate_hz * clip.channels * 2,
        clip.channels * 2,
        16,
        b"data",
        len(payload),
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def to_float(clip: PcmClip, channel: int = 0) -> SampleBuffer:
    """Extract one channel as float64, scaled by 1/32768 into [-1, 1);
    BadChannel unless ``channel`` is a whole number in [0, channels - 1]."""
    channel = check_count(channel, BadChannel, "channel", 0, clip.channels - 1)
    lane = clip.samples.reshape(-1, clip.channels)[:, channel]
    return SampleBuffer._adopt(lane / READ_SCALE, clip.sample_rate_hz)


def to_pcm(buf: SampleBuffer) -> PcmClip:
    """Quantize to mono int16: scale by 32767, round half away from zero, clamp.

    The read scale (1/32768) and write scale (32767) are deliberately
    asymmetric so that -1.0 maps to -32767 rather than -32768; the price is
    that a float round trip is only sample-exact for magnitudes <= 16384.
    A WAV stores a whole-number rate that fits its header, so any other
    rate raises BadRate.
    """
    scaled = buf.samples * WRITE_SCALE
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    clamped = np.clip(rounded, -32768, 32767)
    return PcmClip(
        samples=clamped.astype(np.int16),
        sample_rate_hz=buf.sample_rate_hz,
        channels=1,
    )
