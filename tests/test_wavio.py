"""Container round trips, error taxonomy, and the int16/float conversions."""

import errno
import math
import os
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraband import (
    BadArgument,
    BadChannel,
    BadRate,
    IoFailure,
    NotWav,
    PcmClip,
    SampleBuffer,
    TruncatedFile,
    UltrabandError,
    UnsupportedFormat,
    detect,
    load_catalog,
    load_survey,
    open_wav,
    read_wav,
    render_spectrogram,
    save_catalog,
    save_survey,
    stft,
    to_float,
    to_pcm,
    write_wav,
)
from ultraband import wavio
from ultraband.wavio import _PCM_CHUNK, _data_chunk_bytes

RATE = 48000


def _golden_header(n_payload_bytes: int, rate: int, channels: int) -> bytes:
    # Independent reconstruction of the canonical 44-byte PCM16 header.
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + n_payload_bytes,
        b"WAVE",
        b"fmt ",
        16,
        1,
        channels,
        rate,
        rate * channels * 2,
        channels * 2,
        16,
        b"data",
        n_payload_bytes,
    )


# --- writer ---


def test_writer_emits_canonical_header(tmp_path):
    clip = PcmClip(np.array([0, 100, -100, 32767], dtype=np.int16), RATE)
    path = tmp_path / "golden.wav"
    write_wav(path, clip)
    blob = path.read_bytes()
    assert blob[:44] == _golden_header(8, RATE, 1)
    assert blob[44:] == struct.pack("<4h", 0, 100, -100, 32767)
    # at the fields' limits: the largest mono rate, the most channels, and
    # byte rates 2 and 4 short of 2**32
    for rate, channels in [(44100, 3), (2**31 - 1, 1), (65538, 32767)]:
        samples = np.arange(4 * channels, dtype=np.int64).astype(np.int16)
        write_wav(path, PcmClip(samples, rate, channels))
        blob = path.read_bytes()
        assert blob[:44] == _golden_header(samples.nbytes, rate, channels), (rate, channels)
        assert blob[44:] == samples.astype("<i2").tobytes()


def test_silence_file_size(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, PcmClip(np.zeros(3, dtype=np.int16), RATE))
    assert path.stat().st_size == 44 + 6


def test_max_sample_little_endian(tmp_path):
    path = tmp_path / "max.wav"
    write_wav(path, PcmClip(np.array([32767], dtype=np.int16), 16000))
    assert path.read_bytes()[-2:] == b"\xff\x7f"


def test_write_read_round_trip(tmp_path):
    clip = PcmClip(np.array([1, -2, 3, -32768, 32767, 0], dtype=np.int16), 44100)
    path = tmp_path / "rt.wav"
    write_wav(path, clip)
    assert read_wav(path) == clip


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    clip = PcmClip(rng.integers(-32768, 32768, 999).astype(np.int16), 22050)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, clip)
    write_wav(b, read_wav(a))
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    samples=st.lists(st.integers(-32768, 32767), min_size=1, max_size=64),
    rate=st.sampled_from([8000, 16000, 44100, 48000]),
    channels=st.integers(1, 4),
)
def test_round_trip_any_clip(tmp_path_factory, samples, rate, channels):
    frames = len(samples) - len(samples) % channels
    if frames == 0:
        return
    clip = PcmClip(np.array(samples[:frames], dtype=np.int16), rate, channels)
    path = tmp_path_factory.mktemp("rt") / "clip.wav"
    write_wav(path, clip)
    assert read_wav(path) == clip


def test_write_failure_raises_io(tmp_path):
    with pytest.raises(IoFailure):
        write_wav(tmp_path / "nope" / "x.wav", PcmClip(np.zeros(1, dtype=np.int16), RATE))


#: Writers of a whole file. /dev/full opens, then fails each write (or the
#: flush at close) with ENOSPC.
_WHOLE_FILE_WRITERS = {
    "write_wav": lambda path: write_wav(path, PcmClip(np.zeros(4096, dtype=np.int16), RATE)),
    "render_spectrogram": lambda path: render_spectrogram(
        stft(SampleBuffer(np.zeros(4096), RATE)), path),
    "save_catalog": lambda path: save_catalog(load_catalog(), path),
    "save_survey": lambda path: save_survey(load_survey(), path),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("writer", sorted(_WHOLE_FILE_WRITERS))
def test_write_failure_after_the_open_raises_io(writer):
    with pytest.raises(IoFailure, match=r"^cannot write /dev/full: ") as info:
        _WHOLE_FILE_WRITERS[writer]("/dev/full")
    assert info.value.__cause__.errno == errno.ENOSPC


def test_data_chunk_bound_is_the_riff_size_field():
    # the RIFF size field holds the data bytes plus 36 header bytes
    assert _data_chunk_bytes(0) == 0
    assert _data_chunk_bytes(0xFFFFFFFF - 36) == 0xFFFFFFFF - 36
    for n_bytes in (0xFFFFFFFF - 35, 0xFFFFFFFF, 1 << 40):
        with pytest.raises(BadArgument, match="WAV data bytes"):
            _data_chunk_bytes(n_bytes)


def test_oversized_clip_raises_before_the_file_exists(tmp_path):
    # 2**31 zero-stride samples are 4 GiB of PCM without 4 GiB of memory;
    # struct.pack used to fail on them after the file was created
    huge = PcmClip._adopt(np.broadcast_to(np.int16(0), (1 << 31,)), 48000, 1)
    path = tmp_path / "huge.wav"
    with pytest.raises(BadArgument):
        write_wav(path, huge)
    assert not path.exists()


# --- reader error taxonomy ---


def test_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        read_wav(tmp_path / "absent.wav")


def test_not_riff(tmp_path):
    path = tmp_path / "text.wav"
    path.write_bytes(b"this is not audio, honestly")
    with pytest.raises(NotWav):
        read_wav(path)


def test_mp3_id3_tag(tmp_path):
    path = tmp_path / "a.mp3"
    path.write_bytes(b"ID3\x04\x00\x00\x00\x00\x00\x00" + b"\x00" * 64)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_mp3_bare_frame_sync(tmp_path):
    path = tmp_path / "b.mp3"
    path.write_bytes(b"\xff\xfb\x90\x00" + b"\x00" * 64)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def _wav_bytes(clip: PcmClip) -> bytes:
    payload = clip.samples.astype("<i2").tobytes()
    return _golden_header(len(payload), clip.sample_rate_hz, clip.channels) + payload


def test_truncated_payload(tmp_path):
    blob = _wav_bytes(PcmClip(np.arange(100, dtype=np.int16), RATE))
    path = tmp_path / "cut.wav"
    path.write_bytes(blob[:-50])
    with pytest.raises(TruncatedFile):
        read_wav(path)


def test_truncated_inside_header(tmp_path):
    blob = _wav_bytes(PcmClip(np.arange(10, dtype=np.int16), RATE))
    path = tmp_path / "cut2.wav"
    path.write_bytes(blob[:9])
    with pytest.raises(TruncatedFile):
        read_wav(path)


def test_no_data_chunk(tmp_path):
    header = struct.pack("<4sI4s", b"RIFF", 4 + 24, b"WAVE")
    fmt = struct.pack("<4sI", b"fmt ", 16) + struct.pack("<HHIIHH", 1, 1, RATE, RATE * 2, 2, 16)
    path = tmp_path / "nodata.wav"
    path.write_bytes(header + fmt)
    with pytest.raises(TruncatedFile):
        read_wav(path)


def test_data_before_fmt(tmp_path):
    data = struct.pack("<4sI", b"data", 4) + b"\x00" * 4
    header = struct.pack("<4sI4s", b"RIFF", 4 + len(data), b"WAVE")
    path = tmp_path / "order.wav"
    path.write_bytes(header + data)
    with pytest.raises(NotWav):
        read_wav(path)


def _patched_fmt(audio_format=1, channels=1, bits=16, block_align=None, rate=RATE) -> bytes:
    if block_align is None:
        block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block_align, block_align, bits)
    data = b"\x00" * 8
    body = (
        struct.pack("<4sI", b"fmt ", 16)
        + fmt
        + struct.pack("<4sI", b"data", len(data))
        + data
    )
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


def test_float_format_rejected(tmp_path):
    path = tmp_path / "float.wav"
    path.write_bytes(_patched_fmt(audio_format=3))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_24bit_rejected(tmp_path):
    path = tmp_path / "deep.wav"
    path.write_bytes(_patched_fmt(bits=24, block_align=3))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_zero_sample_rate_rejected(tmp_path):
    path = tmp_path / "still.wav"
    path.write_bytes(_patched_fmt(rate=0))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_inconsistent_block_align(tmp_path):
    path = tmp_path / "align.wav"
    path.write_bytes(_patched_fmt(block_align=4))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_ragged_data_chunk(tmp_path):
    # 7 bytes of stereo 16-bit data is not a whole number of frames
    fmt = struct.pack("<HHIIHH", 1, 2, RATE, RATE * 4, 4, 16)
    body = (
        struct.pack("<4sI", b"fmt ", 16)
        + fmt
        + struct.pack("<4sI", b"data", 6)
        + b"\x00" * 6
    )
    path = tmp_path / "ragged.wav"
    path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
    with pytest.raises(TruncatedFile):
        read_wav(path)


def test_unknown_chunks_skipped(tmp_path):
    # LIST (odd-sized, padded) before fmt/data must be walked over
    lst = struct.pack("<4sI", b"LIST", 5) + b"INFOx" + b"\x00"
    fmt = struct.pack("<4sI", b"fmt ", 16) + struct.pack("<HHIIHH", 1, 1, RATE, RATE * 2, 2, 16)
    data = struct.pack("<4sI", b"data", 4) + struct.pack("<hh", 7, -7)
    body = lst + fmt + data
    path = tmp_path / "chunky.wav"
    path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
    clip = read_wav(path)
    assert clip.samples.tolist() == [7, -7]


# --- WAVE_FORMAT_EXTENSIBLE ---

_PCM_GUID = bytes.fromhex("01000000" "0000" "1000" "8000" "00aa00389b71")
_FLOAT_GUID = bytes.fromhex("03000000" "0000" "1000" "8000" "00aa00389b71")


def _extensible_wav(samples, channels=1, bits=16, valid_bits=16, guid=_PCM_GUID, fmt_size=40):
    """A WAV whose fmt chunk is WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE), built by hand."""
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE, channels, RATE, RATE * align, align, bits)
    body += struct.pack("<HHI16s", 22, valid_bits, (1 << channels) - 1, guid)
    body = body[:fmt_size] + bytes(max(0, fmt_size - len(body)))
    data = np.asarray(samples, dtype="<i2").tobytes()
    chunks = (struct.pack("<4sI", b"fmt ", fmt_size) + body + bytes(fmt_size & 1)
              + struct.pack("<4sI", b"data", len(data)) + data)
    return struct.pack("<4sI4s", b"RIFF", 4 + len(chunks), b"WAVE") + chunks


def _stereo_burst(frames=48000):
    """Channel 0 a 17 kHz burst in its middle third, channel 1 silence."""
    t = np.arange(frames) / RATE
    lane = 16000 * np.sin(2 * np.pi * 17000 * t) * (abs(t - t[-1] / 2) < t[-1] / 6)
    return np.stack([lane, np.zeros(frames)], axis=1).round().astype(np.int16).ravel()


@pytest.mark.parametrize("fmt_size", [40, 41])
def test_extensible_pcm_reads_as_plain_pcm(tmp_path, fmt_size):
    samples = _stereo_burst()
    plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
    write_wav(plain, PcmClip(samples, RATE, channels=2))
    extensible.write_bytes(_extensible_wav(samples, channels=2, fmt_size=fmt_size))
    assert read_wav(extensible) == read_wav(plain)
    with open_wav(extensible) as wav:
        verdict = detect(wav)
    assert verdict.flagged
    assert np.array_equal(verdict.frame_flags, detect(to_float(read_wav(plain))).frame_flags)


@pytest.mark.parametrize(
    "kwargs,message",
    [({"guid": _FLOAT_GUID}, "subformat 03000000"),
     ({"bits": 24, "valid_bits": 24}, "24-bit"),
     ({"valid_bits": 12}, "12 valid bits"),
     ({"valid_bits": 20}, "20 valid bits")],
)
def test_extensible_other_than_16_bit_pcm_rejected(tmp_path, kwargs, message):
    path = tmp_path / "ext.wav"
    samples = np.zeros(6 * kwargs.get("bits", 16) // 16, dtype=np.int16)
    path.write_bytes(_extensible_wav(samples, **kwargs))
    with pytest.raises(UnsupportedFormat, match=message):
        read_wav(path)
    with pytest.raises(UnsupportedFormat, match=message):
        detect(open_wav(path))


@pytest.mark.parametrize("fmt_size", [16, 18, 39])
def test_extensible_fmt_chunk_under_40_bytes_is_truncated(tmp_path, fmt_size):
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(_extensible_wav(np.zeros(4), fmt_size=fmt_size))
    with pytest.raises(TruncatedFile, match="fmt chunk too small"):
        read_wav(path)
    with pytest.raises(TruncatedFile, match="fmt chunk too small"):
        detect(open_wav(path))


# --- read_wav keeps one copy; open_wav reads spans ---


def test_read_wav_holds_the_pcm_once(tmp_path):
    # the parent held the file's bytes and a private copy of them: 2x
    clip = PcmClip(np.arange(1 << 20, dtype=np.int64).astype(np.int16), RATE)
    path = tmp_path / "one_copy.wav"
    write_wav(path, clip)
    tracemalloc.start()
    try:
        got = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == clip
    assert not got.samples.flags.writeable
    assert peak < 1.1 * clip.samples.nbytes


def _check_lane_spans(path, spans) -> None:
    """Each span's ``_lane`` is a contiguous int16 array equal to the clip's,
    and its ``_read`` equals ``to_float``'s samples."""
    clip = read_wav(path)
    expected = to_float(clip).samples
    with open_wav(path) as wav:
        for start, stop in spans:
            lane = wav._lane(start, stop)
            assert lane.dtype == np.int16 and lane.flags.c_contiguous, (start, stop)
            assert np.array_equal(lane, clip._lane(start, stop)), (start, stop)
            assert np.array_equal(wav._read(start, stop), expected[start:stop]), (start, stop)


def test_open_wav_blocks_equal_to_float_views(tmp_path):
    rng = np.random.default_rng(12)
    interleaved = rng.integers(-32768, 32768, 3 * 1001, dtype=np.int64).astype(np.int16)
    path = tmp_path / "three.wav"
    write_wav(path, PcmClip(interleaved, 44100, channels=3))
    buf = to_float(read_wav(path))
    with open_wav(path) as wav:
        assert (len(wav), wav.sample_rate_hz, wav.channels) == (1001, 44100, 3)
        for start, stop in [(0, 1), (3, 10), (0, 1000), (500, 1001), (0, 1001), (1000, 1001)]:
            ours, view = wav._read(start, stop), buf._read(start, stop)
            assert ours.dtype == np.float64 and ours.shape == (stop - start,)
            assert np.array_equal(ours, buf.samples[start:stop])
            assert np.array_equal(view, buf.samples[start:stop])
            assert np.shares_memory(view, buf.samples) and not np.shares_memory(ours, buf.samples)
        assert wav._read(7, 7).size == 0
    assert SampleBuffer(np.zeros(0), RATE)._read(0, 0).size == 0

    # the span contract _framed relies on: a mono or stereo clip, its open
    # file and its SampleBuffer each read a 1-D float64 span of stop - start samples
    for channels in (1, 2):
        clip = PcmClip(rng.integers(-32768, 32768, channels * 1001).astype(np.int16), RATE,
                       channels)
        write_wav(path, clip)
        with open_wav(path) as wav:
            for source in (clip, wav, to_float(clip)):
                for start, stop in [(0, 0), (0, 1), (3, 10), (500, 1001), (0, 1001), (1000, 1001)]:
                    ours = source._read(start, stop)
                    assert ours.dtype == np.float64 and ours.shape == (stop - start,), (start, stop)
                    assert np.array_equal(ours, clip._lane(start, stop) / 32768.0), (start, stop)

    # a span of a multi-channel file is read in chunks of the scratch: spans
    # that start and stop on both sides of each chunk edge
    step = wavio._LANE_SCRATCH // 3
    frames = 2 * step + 1000
    write_wav(path, PcmClip(rng.integers(-32768, 32768, 3 * frames).astype(np.int16), RATE, 3))
    edges = [(0, e + d) for e in (step, 2 * step) for d in (-1, 0, 1)]
    _check_lane_spans(path, edges + [(1, step), (1, step + 2), (step - 1, 2 * step + 1),
                                     (step + 1, frames), (0, frames), (2, 2)])
    # the most channels a clip holds: 32 frames per chunk
    many = tmp_path / "many.wav"
    write_wav(many, PcmClip(rng.integers(-32768, 32768, 32767 * 70).astype(np.int16), RATE, 32767))
    _check_lane_spans(many, [(0, 70), (0, 31), (0, 32), (0, 33), (31, 65), (33, 64), (63, 70),
                             (69, 70)])


def test_open_wav_spans_read_from_two_threads(tmp_path):
    # two threads share one file object: each span's seek and read must be one step
    rng = np.random.default_rng(13)
    interleaved = rng.integers(-32768, 32768, 3 * 60000, dtype=np.int64).astype(np.int16)
    path = tmp_path / "shared.wav"
    write_wav(path, PcmClip(interleaved, RATE, channels=3))
    expected = to_float(read_wav(path)).samples
    spans = [(start, min(start + 997, 60000)) for start in range(0, 60000, 500)]
    with open_wav(path) as wav:
        got = {}

        def read(mine):
            for _ in range(20):
                for start, stop in mine:
                    got.setdefault((start, stop), []).append(wav._read(start, stop))

        readers = [threading.Thread(target=read, args=(spans[i::2],)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert sorted(got) == spans
    for (start, stop), reads in got.items():
        assert len(reads) == 20
        for samples in reads:
            assert np.array_equal(samples, expected[start:stop]), (start, stop)


def test_open_wav_closes_its_file(tmp_path):
    # a read of the closed file raised a bare ValueError from seek
    path = tmp_path / "c.wav"
    write_wav(path, PcmClip(np.zeros(RATE // 2, dtype=np.int16), RATE))
    with open_wav(path) as wav:
        assert not detect(wav).flagged and stft(wav).magnitudes_db.size
    for read in (lambda: wav._read(0, 4), lambda: detect(wav), lambda: stft(wav)):
        with pytest.raises(IoFailure, match="closed file"):
            read()


# --- value types ---


def test_clip_rejects_out_of_range():
    with pytest.raises(BadArgument):
        PcmClip(np.array([40000]), RATE)


def test_clip_rejects_samples_that_are_not_whole_numbers():
    # the int64 cast used to truncate these to [0, -1, 2]
    with pytest.raises(BadArgument, match="whole numbers"):
        PcmClip(np.array([0.7, -1.9, 2.5]), RATE)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_clip_rejects_non_finite_samples_without_a_cast_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadArgument):
            PcmClip(np.array([0.0, value]), RATE)


@pytest.mark.parametrize(
    "samples", [["1", "2"], np.array([1.0 + 0.0j])], ids=["strings", "complex"]
)
def test_clip_rejects_samples_that_are_not_real_numbers(samples):
    # each used to raise a bare TypeError
    with pytest.raises(BadArgument, match="real numbers"):
        PcmClip(samples, RATE)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_clip_accepts_whole_numbers_in_range(dtype):
    clip = PcmClip(np.array([1, -32768, 32767], dtype=dtype), RATE)
    assert clip.samples.dtype == np.int16
    assert clip.samples.tolist() == [1, -32768, 32767]


def test_clip_rejects_ragged_channels():
    with pytest.raises(BadArgument):
        PcmClip(np.zeros(5, dtype=np.int16), RATE, channels=2)


def test_clip_rejects_bad_rate():
    # inf and nan used to escape as OverflowError and a bare ValueError
    for rate in (0, -8000, 48000.4, math.inf, math.nan):
        with pytest.raises(BadRate):
            PcmClip(np.zeros(2, dtype=np.int16), rate)
    with pytest.raises(BadArgument):
        PcmClip(np.zeros(2, dtype=np.int16), RATE, channels=0)
    assert PcmClip(np.zeros(2, dtype=np.int16), 48000.0).sample_rate_hz == 48000


def test_clip_is_immutable():
    clip = PcmClip(np.zeros(4, dtype=np.int16), RATE)
    with pytest.raises(ValueError):
        clip.samples[0] = 1


def test_clip_frames_and_duration():
    clip = PcmClip(np.zeros(96000, dtype=np.int16), RATE, channels=2)
    assert clip.frames == 48000
    assert clip.duration_s == pytest.approx(1.0)


def test_buffer_rejects_nan():
    with pytest.raises(ValueError):
        SampleBuffer(np.array([0.0, np.nan]), RATE)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_buffer_rejects_rate_that_is_not_positive_and_finite(rate):
    # an infinite rate used to pass; demodulate, detect and to_pcm then
    # failed on it with a bare ValueError or an OverflowError
    with pytest.raises(BadArgument):
        SampleBuffer(np.zeros(4), rate)


def test_buffer_rejects_2d():
    with pytest.raises(ValueError):
        SampleBuffer(np.zeros((2, 2)), RATE)


@pytest.mark.parametrize(
    "samples",
    [np.array([0.0, np.nan]), np.array([np.inf]), np.zeros((2, 2)), np.array([1.0 + 1.0j]),
     ["1", "2"]],
    ids=["nan", "inf", "2-d", "complex", "strings"],
)
def test_buffer_errors_are_typed(samples):
    # the first three used to be bare ValueErrors; complex samples lost their
    # imaginary part and strings were parsed as numbers
    with pytest.raises(BadArgument):
        SampleBuffer(samples, RATE)


def test_buffer_len_and_duration():
    buf = SampleBuffer(np.zeros(24000), RATE)
    assert len(buf) == 24000
    assert buf.duration_s == pytest.approx(0.5)


# --- conversions ---


def test_to_float_exact_values():
    clip = PcmClip(np.array([32767, -32768, 0, 16384], dtype=np.int16), RATE)
    buf = to_float(clip)
    assert buf.samples[0] == 0.999969482421875
    assert buf.samples[1] == -1.0
    assert buf.samples[2] == 0.0
    assert buf.samples[3] == 0.5


def test_to_float_channel_select():
    interleaved = np.array([10, -10, 20, -20, 30, -30], dtype=np.int16)
    clip = PcmClip(interleaved, RATE, channels=2)
    assert (to_float(clip, channel=0).samples * 32768).tolist() == [10, 20, 30]
    assert (to_float(clip, channel=1).samples * 32768).tolist() == [-10, -20, -30]


def test_to_float_adopts_a_fresh_read_only_array():
    interleaved = np.array([10, -10, 20, -20, 32767, -32768], dtype=np.int16)
    clip = PcmClip(interleaved, RATE, channels=2)
    for channel in (0, 1):
        buf = to_float(clip, channel=channel)
        assert not buf.samples.flags.writeable
        assert not np.shares_memory(buf.samples, clip.samples)
        assert np.array_equal(buf.samples, interleaved[channel::2] / 32768)
        assert buf.sample_rate_hz == float(RATE)


def test_buffer_copies_and_freezes_a_caller_array():
    mine = np.array([0.25, -0.5])
    buf = SampleBuffer(mine, RATE)
    mine[0] = 0.75
    assert buf.samples.tolist() == [0.25, -0.5]
    assert not buf.samples.flags.writeable


@pytest.mark.parametrize("rate", [0.4, 48000.4])
def test_to_pcm_rejects_a_rate_that_is_not_whole(rate):
    # 0.4 Hz used to reach PcmClip as 0 and 48000.4 Hz was written as 48000
    with pytest.raises(BadRate):
        to_pcm(SampleBuffer(np.zeros(4), rate))


def test_to_float_bad_channel():
    clip = PcmClip(np.zeros(4, dtype=np.int16), RATE, channels=2)
    with pytest.raises(BadChannel):
        to_float(clip, channel=2)


@pytest.mark.parametrize(
    "value,expected",
    [
        (1.0, 32767),
        (-1.0, -32767),
        (2.0, 32767),
        (-2.0, -32768),
        (0.0, 0),
        (0.5, 16384),  # 16383.5 rounds half away from zero
        (-0.5, -16384),
    ],
)
def test_to_pcm_examples(value, expected):
    clip = to_pcm(SampleBuffer(np.array([value]), RATE))
    assert clip.samples[0] == expected


def _rounding_ties() -> np.ndarray:
    """Ties, full scale and their neighbours, both signs, zeros and subnormals."""
    ties = np.array([0.5, 16383.5, 32767.0, 32766.5, 32767.5, 40000.0, 1e9]) / 32767.0
    near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 2.0)])
    return np.concatenate([near, -near, [0.0, -0.0, 5e-324, -5e-324]])


def _to_pcm_whole_array(x: np.ndarray) -> np.ndarray:
    scaled = x * 32767.0
    expected = np.clip(np.copysign(np.floor(np.abs(scaled) + 0.5), scaled), -32768, 32767)
    return expected.astype(np.int16)


def test_to_pcm_keeps_the_rounding_of_its_formula():
    # ties and full scale against the formula's whole-array form
    x = _rounding_ties()
    assert np.array_equal(to_pcm(SampleBuffer(x, RATE)).samples, _to_pcm_whole_array(x))


@pytest.mark.parametrize("n", [_PCM_CHUNK - 1, _PCM_CHUNK, _PCM_CHUNK + 1])
def test_to_pcm_in_chunks_equals_the_whole_array_formula(n):
    x = np.resize(_rounding_ties(), n)
    clip = to_pcm(SampleBuffer(x, RATE))
    assert np.array_equal(clip.samples, _to_pcm_whole_array(x))
    assert clip.samples.dtype == np.int16 and not clip.samples.flags.writeable
    assert type(clip.sample_rate_hz) is int and (clip.sample_rate_hz, clip.channels) == (48000, 1)


def test_float_round_trip_exact_in_symmetric_core():
    # With read scale 32768 and write scale 32767 the composition maps
    # s -> round(s - s/32768); exact up to |s| = 16384, off by one beyond.
    s = np.arange(-16384, 16385, dtype=np.int16)
    clip = PcmClip(s, RATE)
    again = to_pcm(to_float(clip))
    assert np.array_equal(again.samples, s)


def test_float_round_trip_within_one_count_everywhere():
    s = np.arange(-32768, 32768, dtype=np.int16)
    again = to_pcm(to_float(PcmClip(s, RATE)))
    err = again.samples.astype(np.int32) - s.astype(np.int32)
    assert int(np.abs(err).max()) <= 1
    # the extremes are known lossy cases under the asymmetric scales
    assert again.samples[-1] == 32766
    assert again.samples[0] == -32767


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-16384, 16384), min_size=1, max_size=128))
def test_float_round_trip_property(samples):
    clip = PcmClip(np.array(samples, dtype=np.int16), RATE)
    assert to_pcm(to_float(clip)) == clip


# --- fuzzing: any input gives a clip or an UltrabandError ---


def _valid_wav() -> bytes:
    data = struct.pack("<8h", 0, 1, -1, 32767, -32768, 100, -100, 7)
    return _golden_header(len(data), RATE, 2) + data


#: Offsets and widths of the numeric header fields of ``_valid_wav``.
_HEADER_FIELDS = [(4, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (40, 4)]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "clip.wav"


def _read_or_reject(path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        clip = read_wav(path)
    except UltrabandError:
        return
    assert isinstance(clip, PcmClip)


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=128) | st.binary(max_size=128).map(lambda b: b"RIFF" + b))
def test_read_wav_any_bytes(fuzz_path, blob):
    _read_or_reject(fuzz_path, blob)


_FIELD_VALUE = st.sampled_from([0, 1, 2, 3, 0xFFFF, 0xFFFFFFFF]) | st.integers(0, 0xFFFFFFFF)


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.tuples(st.sampled_from(_HEADER_FIELDS), _FIELD_VALUE), max_size=3),
    edits=st.lists(st.tuples(st.integers(0, len(_valid_wav()) - 1), st.integers(0, 255)),
                   max_size=3),
    length=st.none() | st.integers(0, len(_valid_wav()) + 8),
)
def test_read_wav_mutated_header(fuzz_path, fields, edits, length):
    blob = bytearray(_valid_wav())
    for (offset, width), value in fields:
        blob[offset : offset + width] = (value % (1 << (8 * width))).to_bytes(width, "little")
    for offset, value in edits:
        blob[offset] = value
    if length is not None:
        blob = blob[:length] + bytes(max(0, length - len(blob)))
    _read_or_reject(fuzz_path, bytes(blob))


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.tuples(st.sampled_from(_HEADER_FIELDS), _FIELD_VALUE), max_size=3),
    edits=st.lists(st.tuples(st.integers(0, len(_valid_wav()) - 1), st.integers(0, 255)),
                   max_size=3),
    length=st.none() | st.integers(0, len(_valid_wav()) + 8),
)
def test_open_wav_agrees_with_read_wav(fuzz_path, fields, edits, length):
    # one parser: the same file gives both readers the same error or data
    blob = bytearray(_valid_wav())
    for (offset, width), value in fields:
        blob[offset : offset + width] = (value % (1 << (8 * width))).to_bytes(width, "little")
    for offset, value in edits:
        blob[offset] = value
    if length is not None:
        blob = blob[:length] + bytes(max(0, length - len(blob)))
    fuzz_path.write_bytes(bytes(blob))
    try:
        clip = read_wav(fuzz_path)
    except UltrabandError as exc:
        with pytest.raises(type(exc)) as caught:
            open_wav(fuzz_path)
        assert str(caught.value) == str(exc)
        return
    with open_wav(fuzz_path) as wav:
        assert (wav.sample_rate_hz, wav.channels, len(wav)) == (
            clip.sample_rate_hz, clip.channels, clip.frames)
        lane = wav._read(0, len(wav))
        assert np.array_equal(lane, to_float(clip).samples)
