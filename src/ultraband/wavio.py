"""Bit-exact 16-bit PCM WAV reading and writing.

The parser walks RIFF chunks directly instead of going through the stdlib
``wave`` module so that malformed inputs map onto precise error types and
so the writer can guarantee a canonical 44-byte header: files written here
and read back compare byte for byte. One parser serves both readers:
:func:`read_wav` reads the whole data chunk, and :func:`open_wav` keeps the
file open and reads it a block at a time.

Three types travel through the rest of the package:

* :class:`PcmClip` -- integer samples exactly as stored on disk.
* :class:`SampleBuffer` -- float64 samples in [-1, 1] for DSP work.
* :class:`WavFile` -- an open WAV file; a span of its frames is read through
  at most ``_LANE_SCRATCH`` interleaved samples (2 MiB).

Clip and file share one channel-0 reader: ``len`` frames, ``_lane`` spans as
stored (int16; ``embed_file``), ``_read`` spans as ``to_float`` scales them
(``_peak`` and the rest). Only this module knows the layout and the header.
"""

from __future__ import annotations

import os
import struct
import threading
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
    opened,
)

_HEADER = struct.Struct("<4sI4s")
_FMT_BODY = struct.Struct("<HHIIHH")
_CHUNK_HEAD = struct.Struct("<4sI")
#: WAVE_FORMAT_EXTENSIBLE: cbSize, valid bits, channel mask and SubFormat
#: GUID follow the 16-byte body, 40 bytes in all.
_EXTENSIBLE = 0xFFFE
_FMT_EXTENSION = struct.Struct("<HHI16s")
_PCM_SUBFORMAT = bytes.fromhex("01000000" "0000" "1000" "8000" "00aa00389b71")

#: Scale used when converting stored integers to floats (read direction).
READ_SCALE = 32768.0
#: Scale used when converting floats back to integers (write direction).
WRITE_SCALE = 32767.0

_PCM_CHUNK = 1 << 15  # samples ``to_pcm`` quantizes at a time: 256 KB of float scratch
_LANE_SCRATCH = 1 << 20  # interleaved samples ``WavFile._lane`` reads at a time: 2 MiB


def _max_rate(channels: int) -> int:
    """The highest rate whose byte rate fits the header's 32-bit field."""
    return 0xFFFFFFFF // (2 * channels)


def _real_array(samples) -> np.ndarray:
    """``samples`` as an array; BadArgument unless it holds real numbers."""
    raw = np.asarray(samples)
    if raw.dtype.kind not in "biuf":
        raise BadArgument(f"samples must be real numbers, not {raw.dtype}")
    return raw


class _Channel0:
    """Channel 0 of ``frames`` PCM frames; a subclass's ``_lane`` reads it as stored."""

    def __len__(self) -> int:
        return self.frames

    @property
    def duration_s(self) -> float:
        return self.frames / self.sample_rate_hz

    def _read(self, start: int, stop: int) -> np.ndarray:
        """Channel 0 of frames ``start`` to ``stop`` as float64, scaled by 1/32768."""
        return self._lane(start, stop) / READ_SCALE


@dataclass(frozen=True)
class PcmClip(_Channel0):
    """Interleaved signed 16-bit samples plus container metadata.

    Instances are immutable; every field is validated on construction so a
    clip that exists is always writable as a legal WAV file: ``channels`` is
    a whole number in [1, 32767], so that the 16-bit block-align field holds
    2 * channels, and ``sample_rate_hz`` one in [1, ``_max_rate(channels)``],
    so that the 32-bit byte-rate field holds it.
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
        rate = check_count(self.sample_rate_hz, BadRate, "sample_rate_hz", 1, _max_rate(channels))
        object.__setattr__(self, "sample_rate_hz", rate)
        if arr.size % channels:
            raise BadArgument("sample count is not a whole number of frames")

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate_hz: int, channels: int) -> "PcmClip":
        """Take ownership of a fresh int16 array whose fields are checked
        (by ``_parse_header`` or ``to_pcm``): no copy, no scan."""
        samples.flags.writeable = False
        clip = object.__new__(cls)
        object.__setattr__(clip, "samples", samples)
        object.__setattr__(clip, "sample_rate_hz", sample_rate_hz)
        object.__setattr__(clip, "channels", channels)
        return clip

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

    def _lane(self, start: int, stop: int) -> np.ndarray:
        """Channel 0 of frames ``start`` to ``stop`` as stored: an int16 view."""
        return self.samples[start * self.channels : stop * self.channels : self.channels]


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
        _finite(arr)
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

    def _read(self, start: int, stop: int) -> np.ndarray:
        """Samples ``start`` to ``stop``, a view, as ``WavFile._read`` reads them."""
        return self.samples[start:stop]


def _finite(samples: np.ndarray) -> np.ndarray:
    """``samples``; BadArgument unless the min and max (so every sample) are finite."""
    if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise BadArgument("samples must be finite")
    return samples


def _sniff_mp3(head: bytes) -> bool:
    # ID3v2 tag or a bare MPEG frame sync; either way there is no point
    # trying to parse it as RIFF.
    if head[:3] == b"ID3":
        return True
    return len(head) >= 2 and head[0] == 0xFF and (head[1] & 0xE0) == 0xE0


def _unpack(fh, layout: struct.Struct, path) -> tuple:
    """The next ``layout.size`` bytes of ``fh``, unpacked."""
    raw = fh.read(layout.size)
    if len(raw) < layout.size:  # the file shrank after fstat
        raise TruncatedFile(f"{path}: file ends inside a header")
    return layout.unpack(raw)


def _parse_header(fh, path) -> tuple:
    """Walk the RIFF chunks of the open file ``fh`` to its data chunk and
    check everything the header claims: (rate, channels, data offset, frames).

    Unknown chunks (LIST, fact, ...) are skipped. Raises NotWav for
    non-RIFF input, UnsupportedFormat for recognizable-but-unusable audio
    such as MP3, float WAV, 0 channels or a rate that ``PcmClip`` refuses
    (0 Hz, or a byte rate past 32 bits), and TruncatedFile when the
    container promises more bytes than the file's size (``os.fstat``)
    holds. WAVE_FORMAT_EXTENSIBLE is read when its SubFormat is PCM with 16
    valid bits of 16.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if _sniff_mp3(head[:4]):
        raise UnsupportedFormat(f"{path}: MP3 data, not PCM WAV")
    if len(head) < _HEADER.size:
        if head and head[:4] == b"RIFF"[: len(head)]:
            raise TruncatedFile(f"{path}: shorter than a RIFF header")
        raise NotWav(f"{path}: not a RIFF/WAVE file")
    riff, riff_size, wave_id = _HEADER.unpack(head)
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise NotWav(f"{path}: not a RIFF/WAVE file")
    if riff_size + 8 > size:
        raise TruncatedFile(f"{path}: RIFF declares {riff_size + 8} bytes, file has {size}")

    fmt = None
    pos = _HEADER.size
    while pos + _CHUNK_HEAD.size <= size:
        fh.seek(pos)
        cid, chunk_size = _unpack(fh, _CHUNK_HEAD, path)
        body_start = pos + _CHUNK_HEAD.size
        if body_start + chunk_size > size:
            raise TruncatedFile(f"{path}: chunk {cid!r} runs past end of file")
        if cid == b"fmt ":
            if chunk_size < _FMT_BODY.size:
                raise TruncatedFile(f"{path}: fmt chunk too small")
            fmt = _unpack(fh, _FMT_BODY, path)
            if fmt[0] != _EXTENSIBLE:
                fmt += (fmt[5], _PCM_SUBFORMAT)  # all bits valid
            elif chunk_size < _FMT_BODY.size + _FMT_EXTENSION.size:
                raise TruncatedFile(f"{path}: fmt chunk too small")
            else:
                fmt += _unpack(fh, _FMT_EXTENSION, path)[1::2]  # valid bits, SubFormat
        elif cid == b"data":
            if fmt is None:
                raise NotWav(f"{path}: data chunk before fmt chunk")
            audio_format, channels, rate, _byte_rate, block_align, bits, valid_bits, subformat = fmt
            if audio_format not in (1, _EXTENSIBLE):
                raise UnsupportedFormat(
                    f"{path}: format code {audio_format}, only PCM (1) is supported"
                )
            if subformat != _PCM_SUBFORMAT:
                raise UnsupportedFormat(
                    f"{path}: extensible subformat {subformat.hex()}, only PCM is supported"
                )
            if bits != 16:
                raise UnsupportedFormat(f"{path}: {bits}-bit samples, only 16-bit is supported")
            if valid_bits != 16:
                raise UnsupportedFormat(f"{path}: {valid_bits} valid bits of 16, only 16 is supported")
            check_count(channels, UnsupportedFormat, f"{path}: channels", 1)
            if block_align != channels * 2:
                raise UnsupportedFormat(f"{path}: inconsistent channel layout")
            if chunk_size % block_align:
                raise TruncatedFile(f"{path}: data chunk is not a whole number of frames")
            # PcmClip's rule, so that every header read here makes a valid clip
            check_count(rate, UnsupportedFormat, f"{path}: sample_rate_hz", 1, _max_rate(channels))
            return rate, channels, body_start, chunk_size // block_align
        # skip anything else; odd-sized chunks carry a pad byte
        pos = body_start + chunk_size + (chunk_size & 1)
    raise TruncatedFile(f"{path}: no data chunk found")


class WavFile(_Channel0):
    """A 16-bit PCM WAV file held open, its header checked by the parser
    that ``read_wav`` uses; made by :func:`open_wav`.

    ``len`` is the frame count. Every subcommand reads its WAVs this way:
    ``detect``, ``stft``, ``measure``, ``recovered_bandwidth``, ``find_silence``,
    ``modulate``, ``demodulate`` and ``_peak`` read channel 0 a block at a time
    with ``_read``, as ``to_float`` scales it, holding one block, not the file;
    ``embed_file`` reads the host's ``_lane``. More than one channel is read
    through at most ``_LANE_SCRATCH`` interleaved samples (2 MiB) at a time.
    Close it, or use it in a ``with``; a closed file raises IoFailure.
    """

    def __init__(self, fh, path, sample_rate_hz: int, channels: int, offset: int, frames: int):
        self._fh = fh
        self._lock = threading.Lock()  # a span's seek and read, from either thread of ``_framed``
        self._offset = offset
        self._path = path
        self.frames = frames
        self.sample_rate_hz = sample_rate_hz
        self.channels = channels

    def __enter__(self) -> "WavFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _read_into(self, start: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (little-endian int16) with the interleaved samples of
        the frames from ``start`` on."""
        try:
            with self._lock:
                self._fh.seek(self._offset + start * 2 * self.channels)
                got = self._fh.readinto(out.view(np.uint8))
        except (OSError, ValueError) as exc:  # ValueError: the file was closed
            raise IoFailure(f"cannot read {self._path}: {exc}") from exc
        if got != out.nbytes:  # the file shrank after it was opened
            raise TruncatedFile(f"{self._path}: data chunk ends early")
        return out

    def _lane(self, start: int, stop: int) -> np.ndarray:
        """Channel 0 of frames ``start`` to ``stop`` as stored: a contiguous int16
        array, read through one scratch of at most ``_LANE_SCRATCH`` samples."""
        lane = np.empty(stop - start, dtype="<i2")
        if self.channels == 1:
            return self._read_into(start, lane)
        step = max(1, _LANE_SCRATCH // self.channels)
        scratch = np.empty(min(step, stop - start) * self.channels, dtype="<i2")
        for i in range(0, stop - start, step):
            n = min(step, stop - start - i)
            lane[i : i + n] = self._read_into(start + i, scratch[: n * self.channels])[:: self.channels]
        return lane


def open_wav(path) -> WavFile:
    """Open a 16-bit PCM WAV file and check its header, reading no samples.

    Raises what ``read_wav`` raises for the same file, except for a file
    that shrinks after it was opened. Close the result, or use it in a
    ``with`` statement.
    """
    try:
        fh = open(path, "rb")
        try:
            return WavFile(fh, path, *_parse_header(fh, path))
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_wav(path) -> PcmClip:
    """Read a 16-bit PCM WAV file exactly as stored.

    The header is checked as ``open_wav`` checks it: NotWav for non-RIFF
    input, UnsupportedFormat for recognizable-but-unusable audio such as
    MP3, float WAV, 0 channels or a rate that ``PcmClip`` refuses,
    TruncatedFile when the container promises more bytes than exist, and
    IoFailure when the OS read fails. The data chunk is read once, into the
    array the clip keeps.
    """
    with open_wav(path) as wav:
        pcm = wav._read_into(0, np.empty(len(wav) * wav.channels, dtype="<i2"))
        return PcmClip._adopt(pcm.astype(np.int16, copy=False), wav.sample_rate_hz, wav.channels)


def _data_chunk_bytes(n_bytes: int) -> int:
    """``n_bytes`` if a data chunk that long fits the 32-bit RIFF size field
    (which counts 36 header bytes too); BadArgument otherwise."""
    return check_count(n_bytes, BadArgument, "WAV data bytes", 0, 0xFFFFFFFF - 36)


def write_wav(path, clip: PcmClip) -> None:
    """Write ``clip`` with a canonical 44-byte header (PCM, fmt size 16).

    A clip of more than 0xFFFFFFFF - 36 bytes of samples does not fit the
    header; it raises BadArgument before the file is opened.
    """
    n_bytes = _data_chunk_bytes(2 * clip.samples.size)
    block_align = 2 * clip.channels
    header = b"".join((
        _HEADER.pack(b"RIFF", 36 + n_bytes, b"WAVE"),
        _CHUNK_HEAD.pack(b"fmt ", _FMT_BODY.size),
        _FMT_BODY.pack(1, clip.channels, clip.sample_rate_hz,
                       clip.sample_rate_hz * block_align, block_align, 16),
        _CHUNK_HEAD.pack(b"data", n_bytes),
    ))
    with opened(path, "wb") as fh:
        fh.write(header)
        fh.write(clip.samples.astype("<i2", copy=False))


def to_float(clip: PcmClip, channel: int = 0) -> SampleBuffer:
    """Extract one channel as float64, scaled by 1/32768 into [-1, 1);
    BadChannel unless ``channel`` is a whole number in [0, channels - 1]."""
    channel = check_count(channel, BadChannel, "channel", 0, clip.channels - 1)
    lane = clip.samples.reshape(-1, clip.channels)[:, channel]
    return SampleBuffer._adopt(lane / READ_SCALE, clip.sample_rate_hz)


def _peak(signal) -> float:
    """Largest |sample| of channel 0, exactly as ``to_float`` scales it, from
    ``_read`` spans of ``_PCM_CHUNK`` frames."""
    peak = 0.0
    for start in range(0, len(signal), _PCM_CHUNK):
        x = signal._read(start, min(start + _PCM_CHUNK, len(signal)))
        peak = max(peak, float(x.max()), -float(x.min()))
    return peak


def to_pcm(buf: SampleBuffer) -> PcmClip:
    """Quantize to mono int16: scale by 32767, round half away from zero, clamp.

    The read scale (1/32768) and write scale (32767) are deliberately
    asymmetric so that -1.0 maps to -32767 rather than -32768; the price is
    that a float round trip is only sample-exact for magnitudes <= 16384.
    A WAV stores a whole-number rate that fits its header, so any other
    rate raises BadRate.
    """
    rate = check_count(buf.sample_rate_hz, BadRate, "sample_rate_hz", 1, _max_rate(1))
    out = np.empty(len(buf), dtype=np.int16)
    for start in range(0, len(buf), _PCM_CHUNK):
        # scale, abs, +0.5, floor, copysign (x keeps the signs of x * 32767), clip
        x = buf.samples[start : start + _PCM_CHUNK]
        q = x * WRITE_SCALE
        np.abs(q, out=q)
        q += 0.5
        np.floor(q, out=q)
        np.copysign(q, x, out=q)
        out[start : start + x.size] = np.clip(q, -32768, 32767, out=q)
    return PcmClip._adopt(out, rate, 1)
