"""The command line loads no scipy module unless a sample rate is converted.

``scipy.signal`` takes about 1.5 s to import, several times the work of a
10 s ``modulate``. The package does its FFT-length search and overlap-add
filtering in numpy and imports ``resample_poly`` only inside ``resample``'s
rate-changing branch. Each case runs in a fresh interpreter, because
the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import speech_like
from ultraband import modulate, to_pcm, write_wav

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv list through cli.run; prints the exit codes and the loaded
# scipy modules as the last line.
_CHILD = """
import json, sys
import ultraband, ultraband.cli
codes = [ultraband.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _run_fresh(calls, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(calls)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_at_48k_loads_no_scipy(tmp_path):
    write_wav(tmp_path / "speech.wav", to_pcm(speech_like(duration_s=1.0, seed=81)))
    write_wav(tmp_path / "high.wav", to_pcm(modulate(speech_like(duration_s=1.0, seed=82))))
    codes, loaded = _run_fresh(
        [["modulate", "speech.wav", "up.wav"],
         ["demodulate", "high.wav", "low.wav", "--phase-search"],
         ["detect", "high.wav"]],
        tmp_path,
    )
    assert codes == [0, 0, 2]
    assert loaded == []


def test_rate_change_may_load_scipy_signal(tmp_path):
    # a 44.1 kHz input is resampled to the 48 kHz working rate
    write_wav(tmp_path / "speech.wav", to_pcm(speech_like(duration_s=1.0, seed=83, rate=44100.0)))
    codes, loaded = _run_fresh([["modulate", "speech.wav", "up.wav"]], tmp_path)
    assert codes == [0]
    assert "scipy.signal" in loaded
