"""``demodulate_file`` reads its recording a span at a time (``open_wav``).

The file path must write the bytes, and report the bandwidth, that the
whole-clip path ``to_pcm(demodulate(read_wav(p)))`` gives, and the input
peak that sets the recovery floor comes from an int16 scan of channel 0
(``wavio._peak``). A failing call closes the file it opened.
"""

import gc
import warnings

import numpy as np
import pytest

from test_carrier_mix import _edges
from ultraband import (PcmClip, SampleBuffer, demodulate, demodulate_file, demodulator, open_wav,
                       read_wav, recovered_bandwidth, to_float, to_pcm, wavio, write_wav)
from ultraband.cli import EXIT_DATA, EXIT_IO, run
from ultraband.kernels import FIR_TAPS
from ultraband.wavio import _PCM_CHUNK, _peak

RATE = 48000


def _recording(n: int, channels: int, seed: int) -> PcmClip:
    """Channel 0: a 5 kHz tone the detector filters out (peak 0.095) and a
    weak 17 kHz tone it recovers at 1 kHz (0.005), which is above the
    recovery floor of channel 0's peak but not of channel 1's, a full-scale
    square wave; a little noise in both."""
    t = np.arange(n) / RATE
    rng = np.random.default_rng(seed)
    lane0 = 0.095 * np.sin(2 * np.pi * 5000.0 * t) + 0.005 * np.cos(2 * np.pi * 17000.0 * t + 0.7)
    lanes = [lane0 + rng.uniform(-1e-4, 1e-4, n)]
    if channels == 2:
        lanes.append(np.where(np.arange(n) % 96 < 48, 1.0, -1.0) + rng.uniform(-1e-4, 1e-4, n))
    pcm = np.clip(np.round(np.stack(lanes, axis=1) * 32767.0), -32768, 32767).astype(np.int16)
    return PcmClip(pcm.reshape(-1), RATE, channels=channels)


def _lengths():
    """A clip shorter than one filter frame, one a second long, and one at
    the first ``_framed`` block edge of the plain filter and of the search's."""
    return [1000, RATE] + sorted({_edges(FIR_TAPS, rows)[4] for rows in (1, 2)})


@pytest.mark.parametrize("n", _lengths())
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("phase_search", [False, True])
def test_file_equals_the_whole_clip_path(tmp_path, phase_search, channels, n):
    path = tmp_path / "in.wav"
    write_wav(path, _recording(n, channels, n))
    expected = to_pcm(demodulate(read_wav(path), phase_search=phase_search))
    write_wav(tmp_path / "expected.wav", expected)
    bandwidth = demodulate_file(path, tmp_path / "out.wav", phase_search=phase_search)
    assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "expected.wav").read_bytes()
    assert bandwidth == recovered_bandwidth(expected)


def test_the_recovery_floor_reads_channel_zero(tmp_path):
    # the recording above is normalized against channel 0's peak; against
    # channel 1's it would stay at its own level
    write_wav(tmp_path / "in.wav", _recording(RATE, 2, 1))
    demodulate_file(tmp_path / "in.wav", tmp_path / "out.wav")
    assert np.abs(read_wav(tmp_path / "out.wav").samples).max() == 32767


@pytest.mark.parametrize("level", [0.5, 0.005])
@pytest.mark.parametrize("phase_search", [False, True])
def test_the_input_peak_is_read_only_under_the_floor(tmp_path, monkeypatch, phase_search, level):
    # a PCM input's peak is at most 1.0, so a recovered core above the floor
    # of a full-scale input is normalized without a second read of the file;
    # a float input may exceed 1.0 and is always scanned
    t = np.arange(RATE) / RATE
    write_wav(tmp_path / "in.wav", to_pcm(SampleBuffer(level * np.cos(2 * np.pi * 17000.0 * t),
                                                       RATE)))
    scanned = []
    monkeypatch.setattr(demodulator, "_peak", lambda s: scanned.append(type(s)) or _peak(s))
    with open_wav(tmp_path / "in.wav") as wav:
        clip = read_wav(tmp_path / "in.wav")
        for source in (wav, clip, to_float(clip)):
            out = demodulate(source, phase_search=phase_search).samples
            assert np.isclose(np.abs(out).max(), 1.0)
    quiet = level < demodulator._RECOVERY_FLOOR
    assert scanned == [wavio.WavFile, PcmClip] * quiet + [SampleBuffer]


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, _PCM_CHUNK // 2 + 1, 3 * _PCM_CHUNK + 7])
def test_peak_of_an_open_wav_equals_the_clip_peak(tmp_path, channels, n):
    rng = np.random.default_rng(n * channels)
    path = tmp_path / "in.wav"
    cases = [  # (channel-0 peak or None, frames); the other lanes never count
        (None, rng.integers(-20000, 20000, (n, channels))),
        (0.0, np.zeros((n, channels))),
        # the most negative sample, last in the file
        (1.0, np.concatenate([rng.integers(-100, 100, (n - 1, channels)),
                              np.full((1, channels), -32768)])),
        (7 / 32768, np.concatenate([np.full((n, 1), 7), np.full((n, channels - 1), 32767)],
                                   axis=1)),
    ]
    for expected, lanes in cases:
        clip = PcmClip(lanes.astype(np.int16).reshape(-1), RATE, channels=channels)
        write_wav(path, clip)
        with open_wav(path) as wav:
            peak = _peak(wav)
        assert peak == _peak(read_wav(path)) == _peak(clip)
        assert expected is None or peak == expected


def _too_long(path):
    """A data chunk that claims one frame more than the file holds."""
    write_wav(path, _recording(RATE, 1, 3))
    raw = bytearray(path.read_bytes())
    raw[40:44] = (len(raw) - 44 + 2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("make, code, message", [
    (lambda path: None, EXIT_IO, "cannot read"),
    (lambda path: write_wav(path, PcmClip(np.zeros(4410, np.int16), 22050)), EXIT_DATA,
     "does not fit under Nyquist"),
    (_too_long, EXIT_DATA, "runs past end of file"),
], ids=["missing", "band_above_nyquist", "data_past_the_end"])
@pytest.mark.parametrize("phase_search", [False, True])
def test_a_failing_call_closes_its_file(tmp_path, monkeypatch, capsys, make, code, message,
                                        phase_search):
    path = tmp_path / "in.wav"
    make(path)
    opened = []
    monkeypatch.setattr(demodulator, "open_wav",
                        lambda p: opened.append(wavio.open_wav(p)) or opened[-1])
    argv = ["demodulate", str(path), str(tmp_path / "out.wav")] + ["--phase-search"] * phase_search
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
        gc.collect()
    # only a file whose header reads is opened; it is closed again
    assert len(opened) == ("Nyquist" in message)
    assert all(wav._fh.closed for wav in opened)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    (line,) = capsys.readouterr().err.splitlines()
    assert message in line
    assert not (tmp_path / "out.wav").exists()
