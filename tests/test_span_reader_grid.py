"""Every span-reading subcommand keeps the CLI's error contract on any WAV.

A grid of sample rates (1 Hz to 2**31 - 1, the largest rate a mono 16-bit
header holds), lengths and contents runs through ``cli.run`` in a child
process whose address space is capped at 1 GiB (``RLIMIT_AS``, set before
numpy is imported), one child per subcommand. Each cell exits with the code
the table gives. A failing cell prints nothing on stdout, exactly one
``error:`` or ``i/o error:`` line on stderr, and leaves no output file; a
passing one prints one JSON line and nothing on stderr. At 2**31 - 1 Hz a
``detect`` frame is longer than every clip here, so the verdict has no frames.

``modulate`` and ``batch`` are left out: they resample a 1 Hz file to the
working rate whole, which does not fit under the cap yet. ``embed``'s
contract is pinned in ``test_cli.py::test_embed_error_contract``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultraband import PcmClip, write_wav

SRC = Path(__file__).resolve().parents[1] / "src"
CAP_BYTES = 1 << 30

RATES = (1, 8000, 44100, 48000, 2**31 - 1)
LENGTHS = (1, 2047, 48000)
CONTENTS = {
    "zero": lambda n: np.zeros(n),
    "square": lambda n: np.where(np.arange(n) // 16 % 2, 32767, -32768),  # 32-sample period
    "noise": lambda n: np.random.default_rng(34).integers(-32768, 32768, n),
}

# Exit code per rate (rows, in RATES order) and length (columns, in LENGTHS
# order), whatever the content. 65: the 16-22 kHz band lies above Nyquist (1 Hz
# and 8 kHz), or the clip is shorter than one 2048-sample spectrogram frame.
_BAND = ((65, 65, 65), (65, 65, 65), (0, 0, 0), (0, 0, 0), (0, 0, 0))
CODES = {
    "analyze": _BAND,
    "spectrogram": ((65, 65, 0),) * len(RATES),
    "detect": _BAND,
    "demodulate": _BAND,
    "demodulate --phase-search": _BAND,
}

# (argv, output path or None) per cell; prints [code, stdout, stderr, output exists] per cell.
_CHILD = """
import contextlib, io, json, os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
from ultraband import cli
results = []
for argv, out in json.loads(sys.argv[2]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    results.append([code, stdout.getvalue(), stderr.getvalue(), out is not None and os.path.exists(out)])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    for rate in RATES:
        for n in LENGTHS:
            for name, make in CONTENTS.items():
                write_wav(root / f"{rate}_{n}_{name}.wav", PcmClip(make(n).astype(np.int16), rate))
    return root


def _argv(command: str, wav: Path, out: Path):
    name, *flags = command.split()
    if name in ("analyze", "detect"):
        return [name, str(wav)], None
    return [name, str(wav), str(out), *flags], str(out)


@pytest.mark.parametrize("command", CODES)
def test_span_reader_grid_keeps_the_error_contract(grid_dir, tmp_path, command):
    cells = [(rate, n, name) for rate in RATES for n in LENGTHS for name in CONTENTS]
    calls = [_argv(command, grid_dir / f"{rate}_{n}_{name}.wav",
                   tmp_path / f"{rate}_{n}_{name}.{'pgm' if command == 'spectrogram' else 'wav'}")
             for rate, n, name in cells]
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(CAP_BYTES), json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads(done.stdout)
    assert len(results) == len(cells)
    for cell, (_, path), (code, out, err, written) in zip(cells, calls, results):
        rate, n, _ = cell
        assert code == CODES[command][RATES.index(rate)][LENGTHS.index(n)], (command, cell, err)
        assert written == (code == 0 and path is not None), (command, cell)
        if code == 0:
            assert len(out.splitlines()) == 1 and err == "", (command, cell, out, err)
            if command == "detect" and rate == RATES[-1]:
                assert json.loads(out)["frames"] == 0, cell
        else:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1, (command, cell, out, err)
            assert lines[0].startswith(("error: ", "i/o error: ")), (command, cell, err)
