"""The number rules of ``errors.py`` and every parameter and header field
that goes through them.

A count (a frame length, a hop, a channel count or index, a WAV rate) is a
whole number in a range, and a fraction (a taper, a target level, a gain)
lies in (0, 1] or [0, 1]. Bad values of either kind raise the documented
``UltrabandError`` subtype, never a ``TypeError``, ``IndexError`` or
``struct.error`` from deeper down.
"""

import math
import struct

import numpy as np
import pytest

from ultraband import (
    BadAlpha,
    BadArgument,
    BadChannel,
    BadRate,
    ConfigInvalid,
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    UnsupportedFormat,
    embed,
    errors,
    peak_normalize,
    read_wav,
    stft,
    to_float,
    tukey_window,
    write_wav,
)
from ultraband.cli import EXIT_DATA, run
from ultraband.stego import find_silence

RATE = 48000


# --- the rules themselves ---


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, 1, 11])
def test_check_count_rejects(value):
    with pytest.raises(BadArgument, match=rf"^n {value} must be a whole number in \[2, 10\]$"):
        errors.check_count(value, BadArgument, "n", 2, 10)


def test_check_count_without_upper_bound_names_the_lower_one():
    with pytest.raises(BadArgument, match=r"^n 1 must be a whole number >= 2$"):
        errors.check_count(1, BadArgument, "n", 2)


@pytest.mark.parametrize("value", [2, 64.0, np.int16(10), np.float64(7.0), 10**400])
def test_check_count_returns_an_int(value):
    out = errors.check_count(value, BadArgument, "n", 2)
    assert type(out) is int and out == value


@pytest.mark.parametrize("value", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_check_fraction_rejects(value):
    with pytest.raises(BadArgument, match=rf"^f {value} outside \(0, 1\]$"):
        errors.check_fraction(value, BadArgument, "f")


def test_check_fraction_zero_ok_admits_zero_only():
    errors.check_fraction(0.0, BadArgument, "f", zero_ok=True)
    for value in (-1e-300, 1.0000001, math.nan):
        with pytest.raises(BadArgument, match=r"outside \[0, 1\]$"):
            errors.check_fraction(value, BadArgument, "f", zero_ok=True)
    for value in (5e-324, 0.5, 1):
        errors.check_fraction(value, BadArgument, "f")


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ModulationConfig(tukey_alpha=2), "tukey_alpha 2 outside [0, 1]"),
        (lambda: ModulationConfig(normalize_target=0.0), "normalize_target 0.0 outside (0, 1]"),
        (lambda: tukey_window(64, 1.5), "alpha 1.5 outside [0, 1]"),
        (lambda: peak_normalize(_SIG, math.nan), "target nan outside (0, 1]"),
        (lambda: embed(_SIG, _SIG, find_silence(_SIG), gain=-1.0), "gain -1.0 outside (0, 1]"),
    ],
    ids=["tukey_alpha", "normalize_target", "window_alpha", "peak_target", "embed_gain"],
)
def test_every_fraction_keeps_its_message(call, message):
    with pytest.raises((ConfigInvalid, BadAlpha, BadArgument)) as err:
        call()
    assert str(err.value) == message


# --- every whole-number parameter and header field ---

_SIG = SampleBuffer(np.zeros(4096), RATE)
_STEREO3 = PcmClip(np.arange(12, dtype=np.int16), RATE, channels=3)

#: (call taking the value, the documented error, a whole float it accepts)
#: per whole-number parameter
_WHOLE_NUMBERS = {
    "stft_frame_len": (lambda v: stft(_SIG, frame_len=v, hop=8), BadArgument, 64.0),
    "stft_hop": (lambda v: stft(_SIG, frame_len=64, hop=v), BadArgument, 2.0),
    "tukey_window_length": (lambda v: tukey_window(v, 0.5), BadArgument, 2.0),
    "to_float_channel": (lambda v: to_float(_STEREO3, channel=v), BadChannel, 2.0),
    "clip_channels": (
        lambda v: PcmClip(np.zeros(5, dtype=np.int16), RATE, channels=v), BadArgument, 5.0
    ),
    "clip_rate": (lambda v: PcmClip(np.zeros(2, dtype=np.int16), v), BadRate, 8000.0),
}


@pytest.mark.parametrize("name", sorted(_WHOLE_NUMBERS))
def test_whole_number_parameter_rejects_fractions_and_non_finite_values(name):
    # hop=2.5, a window of 2.5 samples and channel 2.5 of three raised a bare
    # TypeError or IndexError; frame_len=inf raised SignalTooShort; a clip of
    # 2.5 channels was built
    call, error, _ok = _WHOLE_NUMBERS[name]
    for value in (2.5, math.nan, math.inf, -1):
        with pytest.raises(error, match=f" {value} must be a whole number "):
            call(value)


@pytest.mark.parametrize("name", sorted(_WHOLE_NUMBERS))
def test_whole_number_parameter_accepts_a_whole_float(name):
    call, _error, ok = _WHOLE_NUMBERS[name]
    call(ok)


def test_to_float_reads_the_channel_it_was_given_as_a_float():
    lanes = [to_float(_STEREO3, channel=k).samples for k in range(3)]
    assert np.array_equal(to_float(_STEREO3, channel=2.0).samples, lanes[2])
    # True used to index a new axis and give a 3-D buffer; it is the int 1
    assert np.array_equal(to_float(_STEREO3, channel=True).samples, lanes[1])


def test_clip_past_its_header_fields_fails_at_construction():
    # each used to be built and then fail in write_wav with struct.error
    with pytest.raises(BadArgument, match="channels 65536 "):
        PcmClip(np.zeros(65536, dtype=np.int16), 8000, channels=65536)
    with pytest.raises(BadArgument, match="channels 32768 "):
        PcmClip(np.zeros(32768, dtype=np.int16), 8000, channels=32768)
    with pytest.raises(BadRate, match="sample_rate_hz 2147483648 "):
        PcmClip(np.zeros(2, dtype=np.int16), 2**31)
    with pytest.raises(BadRate, match="sample_rate_hz 65539 "):
        PcmClip(np.zeros(32767, dtype=np.int16), 65539, channels=32767)


@pytest.mark.parametrize("rate,channels", [(2**31 - 1, 1), (65538, 32767)])
def test_largest_clip_fields_are_writable(tmp_path, rate, channels):
    clip = PcmClip(np.arange(channels, dtype=np.int16), rate, channels)
    path = tmp_path / "edge.wav"
    write_wav(path, clip)
    assert read_wav(path) == clip


def _header(rate: int, channels: int = 1, n_frames: int = 480) -> bytes:
    """A 16-bit PCM WAV whose fmt chunk claims ``rate`` and ``channels``; the
    byte-rate field, which readers ignore, is wrapped to 32 bits."""
    data = bytes(2 * channels * n_frames)
    fmt = struct.pack(
        "<HHIIHH", 1, channels, rate, (rate * 2 * channels) & 0xFFFFFFFF, 2 * channels, 16
    )
    body = struct.pack("<4sI", b"fmt ", 16) + fmt + struct.pack("<4sI", b"data", len(data)) + data
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


@pytest.mark.parametrize(
    "rate,channels", [(3_000_000_000, 1), (2**31, 1), (2**31 - 1, 2), (RATE, 0)]
)
def test_header_field_out_of_range_is_unsupported(tmp_path, rate, channels):
    path = tmp_path / "odd.wav"
    path.write_bytes(_header(rate, channels))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_demodulate_of_a_3_ghz_header_is_data_error(tmp_path, capsys):
    # used to end in a struct.error traceback from write_wav
    src, out = tmp_path / "fast.wav", tmp_path / "out.wav"
    src.write_bytes(_header(3_000_000_000))
    assert run(["demodulate", str(src), str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "sample_rate_hz 3000000000 " in line
    assert not out.exists()
