"""The tail of ``modulate_file`` holds no whole-clip temporary it can drop.

After ``modulate`` the file path quantizes to PCM, writes it, and measures
the written clip. Each of these once kept a clip-sized array alive beside
the next: ``to_pcm``'s float scratch and second int16 copy, the read clip
and the float result held across ``measure``, and ``measure``'s whole
blocks of 128 windowed and transformed Welch frames. On an 18 s 48 kHz clip
``modulate_file`` then peaked (tracemalloc) at 5.5 times the output's
float64 bytes; without them it is about 4.0 times.
"""

import tracemalloc

import numpy as np

from ultraband import PcmClip, modulate_file, write_wav

#: Peak of ``modulate_file`` over the output's float64 bytes.
_PEAK_OVER_OUTPUT = 4.5


def test_modulate_file_peak_stays_near_the_output(tmp_path):
    rate, n = 48000, 18 * 48000
    noise = np.random.default_rng(18).uniform(-0.5, 0.5, n)
    write_wav(tmp_path / "in.wav", PcmClip(np.round(noise * 32767.0).astype(np.int16), rate))
    tracemalloc.start()
    try:
        modulate_file(tmp_path / "in.wav", tmp_path / "out.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_OVER_OUTPUT * 8 * n, peak / (8 * n)
