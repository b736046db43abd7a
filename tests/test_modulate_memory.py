"""``modulate_file`` and ``demodulate_file`` hold no whole-clip temporary they can drop.

Each file path reads the clip, filters channel 0 with the carrier mix inside
the block loop, reading the int16 samples directly, quantizes to PCM, writes
it, and measures the written clip. Each stage once kept a clip-sized array
alive beside the next: the input as float, the filter's two-row output or
the whole mixed input, ``peak_normalize``'s copy, ``to_pcm``'s float scratch
and ``measure``'s whole blocks of Welch frames. On an 18 s 48 kHz clip
``modulate_file`` then peaked (tracemalloc) at 5.5 times the output's
float64 bytes and ``demodulate_file`` at 3.6 (5.0 with the phase search);
without them they read about 2.2, 1.9 and 2.9.
"""

import tracemalloc

import numpy as np
import pytest

from ultraband import PcmClip, demodulate_file, modulate_file, write_wav

#: Peaks over the output's float64 bytes.
_PEAK_OVER_OUTPUT = 2.5
_DEMODULATE_PEAK_OVER_OUTPUT = {False: 2.5, True: 3.5}

_RATE, _N = 48000, 18 * 48000


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _noise_wav(path):
    noise = np.random.default_rng(18).uniform(-0.5, 0.5, _N)
    write_wav(path, PcmClip(np.round(noise * 32767.0).astype(np.int16), _RATE))


def test_modulate_file_peak_stays_near_the_output(tmp_path):
    _noise_wav(tmp_path / "in.wav")
    peak = _peak(lambda: modulate_file(tmp_path / "in.wav", tmp_path / "out.wav"))
    assert peak <= _PEAK_OVER_OUTPUT * 8 * _N, peak / (8 * _N)


@pytest.mark.parametrize("phase_search", [False, True])
def test_demodulate_file_peak_stays_near_the_output(tmp_path, phase_search):
    _noise_wav(tmp_path / "in.wav")
    modulate_file(tmp_path / "in.wav", tmp_path / "high.wav")
    peak = _peak(lambda: demodulate_file(tmp_path / "high.wav", tmp_path / "out.wav",
                                         phase_search=phase_search))
    assert peak <= _DEMODULATE_PEAK_OVER_OUTPUT[phase_search] * 8 * _N, peak / (8 * _N)
