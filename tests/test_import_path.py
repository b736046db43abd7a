"""The package loads no scipy module, at any sample rate.

``scipy.signal`` takes about 1.2 s and 74 MB to import, several times the
work of a 10 s ``modulate``. The package does its FFT-length search,
overlap-add filtering and polyphase resampling in numpy. Each CLI case runs
in a fresh interpreter, because the test process itself has scipy loaded
(the tests use it as a reference).
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import speech_like
from ultraband import ModulationConfig, modulate, to_pcm, write_wav

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "ultraband"

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


def test_rate_change_loads_no_scipy(tmp_path):
    # each call converts its input to another rate before the work
    write_wav(tmp_path / "speech.wav", to_pcm(speech_like(duration_s=1.0, seed=83, rate=44100.0)))
    write_wav(tmp_path / "row.wav", to_pcm(speech_like(duration_s=1.0, seed=84, rate=22050.0)))
    host = speech_like(duration_s=3.0, seed=85, pauses=[(0.8, 2.4)])
    write_wav(tmp_path / "host.wav", to_pcm(host))
    payload = modulate(speech_like(duration_s=0.4, seed=86), ModulationConfig(working_rate_hz=44100.0))
    write_wav(tmp_path / "payload.wav", to_pcm(payload))
    with open(tmp_path / "manifest.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["input", "output"], ["row.wav", "row_out.wav"]])
    codes, loaded = _run_fresh(
        [["modulate", "speech.wav", "up.wav"],
         ["batch", "manifest.csv", "--report", "report.csv"],
         ["embed", "host.wav", "payload.wav", "stego.wav"]],
        tmp_path,
    )
    assert codes == [0, 0, 0]
    with open(tmp_path / "report.csv", newline="") as fh:
        assert [row["error"] for row in csv.DictReader(fh)] == [""]
    assert loaded == []


def _scipy_imports(path: Path) -> list:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "kernels.py" in modules
    found = {str(m.relative_to(SRC)): _scipy_imports(m) for m in modules}
    assert {m: names for m, names in found.items() if names} == {}
