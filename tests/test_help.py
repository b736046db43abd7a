"""The text of every ``--help`` screen, pinned.

The golden test pins what the command line prints and writes, but not its
help. This test pins the 12 help screens: the top level, the 9 subcommands,
and ``catalog list``/``catalog pair``. Flag names and help text are declared
in ``cli.py`` and the defaults in them come from the library, so a change to
either shows here. argparse wraps to the terminal width, so the test sets
``COLUMNS=80``; its layout also differs between Python versions (3.10 says
"optional arguments:"), so the pins hold for the version they were recorded
with. ``PYTHONPATH=src python tests/test_help.py`` prints the observed
screens in the layout of the pins below.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest

from ultraband.cli import EXIT_OK, run

#: Python version whose argparse layout the pins follow.
PINNED_PYTHON = (3, 11)

_SCREENS = {
    (): """\
usage: ultraband [-h]
                 {modulate,demodulate,analyze,spectrogram,detect,embed,catalog,survey,batch}
                 ...

Move speech into the 16-22 kHz near-ultrasound band and back; measure, detect,
and embed such signals; query the attack/defense catalog.

positional arguments:
  {modulate,demodulate,analyze,spectrogram,detect,embed,catalog,survey,batch}
    modulate            shift a WAV into the high band
    demodulate          recover baseband audio from a high-band WAV
    analyze             band metrics of a WAV (leakage, occupancy,
                        suppression)
    spectrogram         render a WAV to a grayscale PGM image
    detect              flag sustained 16-22 kHz content (exit 2 when flagged)
    embed               hide a payload WAV in the silence of a host WAV
    catalog             query the attack/defense technique catalog
    survey              aggregate a command survey CSV
    batch               modulate every file named in a manifest CSV

options:
  -h, --help            show this help message and exit
""",
    ('modulate',): """\
usage: ultraband modulate [-h] [--config FILE] [--carrier CARRIER]
                          [--cutoff CUTOFF] [--alpha ALPHA] [--taps TAPS]
                          [--target TARGET] [--rate RATE]
                          input output

positional arguments:
  input
  output

options:
  -h, --help         show this help message and exit
  --config FILE      key = value config file read before flags
  --carrier CARRIER  carrier frequency, Hz (16000 [method default])
  --cutoff CUTOFF    baseband low-pass cutoff, Hz (6000 [method default])
  --alpha ALPHA      Tukey taper fraction (0.05 [tool default])
  --taps TAPS        least SSB filter length, odd (255 [tool default])
  --target TARGET    output peak level (1 [tool default])
  --rate RATE        working sample rate, Hz (48000 [tool default])
""",
    ('demodulate',): """\
usage: ultraband demodulate [-h] [--carrier CARRIER] [--cutoff CUTOFF]
                            [--taps TAPS] [--phase-search]
                            input output

positional arguments:
  input
  output

options:
  -h, --help         show this help message and exit
  --carrier CARRIER  carrier frequency, Hz (16000 [method default])
  --cutoff CUTOFF    recovery low-pass cutoff, Hz (6000 [method default])
  --taps TAPS        FIR length, odd (255 [tool default])
  --phase-search     try 16 carrier phases, keep the strongest (for
                     recordings)
""",
    ('analyze',): """\
usage: ultraband analyze [-h] [--config FILE] [--carrier CARRIER]
                         [--cutoff CUTOFF] [--alpha ALPHA] [--taps TAPS]
                         [--target TARGET] [--rate RATE]
                         input

positional arguments:
  input

options:
  -h, --help         show this help message and exit
  --config FILE      key = value config file read before flags
  --carrier CARRIER  carrier frequency, Hz (16000 [method default])
  --cutoff CUTOFF    baseband low-pass cutoff, Hz (6000 [method default])
  --alpha ALPHA      Tukey taper fraction (0.05 [tool default])
  --taps TAPS        least SSB filter length, odd (255 [tool default])
  --target TARGET    output peak level (1 [tool default])
  --rate RATE        working sample rate, Hz (48000 [tool default])
""",
    ('spectrogram',): """\
usage: ultraband spectrogram [-h] [--frame FRAME] [--hop HOP]
                             [--window-alpha WINDOW_ALPHA]
                             input output

positional arguments:
  input
  output

options:
  -h, --help            show this help message and exit
  --frame FRAME         frame length, samples (2048 [tool default])
  --hop HOP             hop, samples (1024 [tool default])
  --window-alpha WINDOW_ALPHA
                        Tukey alpha for the analysis window; 1.0 = Hann (1
                        [tool default])
""",
    ('detect',): """\
usage: ultraband detect [-h] [--carrier CARRIER] [--band BAND]
                        [--threshold THRESHOLD] [--sustain-ms SUSTAIN_MS]
                        input

positional arguments:
  input

options:
  -h, --help            show this help message and exit
  --carrier CARRIER     attack band start, Hz (16000 [method default])
  --band BAND           attack band width, Hz (6000 [method default])
  --threshold THRESHOLD
                        attack/speech energy ratio to flag a frame (4 [tool
                        default])
  --sustain-ms SUSTAIN_MS
                        minimum flagged run length, ms (200 [tool default])
""",
    ('embed',): """\
usage: ultraband embed [-h] [--gain GAIN] [--rms-threshold RMS_THRESHOLD]
                       [--frame-ms FRAME_MS] [--min-region-ms MIN_REGION_MS]
                       host payload output

positional arguments:
  host
  payload
  output

options:
  -h, --help            show this help message and exit
  --gain GAIN           payload mix gain (0.5 [tool default])
  --rms-threshold RMS_THRESHOLD
                        silence RMS threshold (0.01 [tool default])
  --frame-ms FRAME_MS   silence scan frame, ms (20 [tool default])
  --min-region-ms MIN_REGION_MS
                        shortest usable silent region, ms (500 [tool default])
""",
    ('catalog',): """\
usage: ultraband catalog [-h] {list,pair} ...

positional arguments:
  {list,pair}
    list       print every catalog entry
    pair       defensive techniques paired with one attack ID

options:
  -h, --help   show this help message and exit
""",
    ('survey',): """\
usage: ultraband survey [-h] [file]

positional arguments:
  file        survey CSV (bundled 50-command data when omitted)

options:
  -h, --help  show this help message and exit
""",
    ('batch',): """\
usage: ultraband batch [-h] --report REPORT [--config FILE]
                       [--carrier CARRIER] [--cutoff CUTOFF] [--alpha ALPHA]
                       [--taps TAPS] [--target TARGET] [--rate RATE]
                       manifest

positional arguments:
  manifest           CSV with input,output and optional per-row config columns

options:
  -h, --help         show this help message and exit
  --report REPORT    where to write the per-file metrics CSV
  --config FILE      key = value config file read before flags
  --carrier CARRIER  carrier frequency, Hz (16000 [method default])
  --cutoff CUTOFF    baseband low-pass cutoff, Hz (6000 [method default])
  --alpha ALPHA      Tukey taper fraction (0.05 [tool default])
  --taps TAPS        least SSB filter length, odd (255 [tool default])
  --target TARGET    output peak level (1 [tool default])
  --rate RATE        working sample rate, Hz (48000 [tool default])
""",
    ('catalog', 'list'): """\
usage: ultraband catalog list [-h] [--file FILE]

options:
  -h, --help   show this help message and exit
  --file FILE  alternate catalog CSV (bundled data when omitted)
""",
    ('catalog', 'pair'): """\
usage: ultraband catalog pair [-h] [--file FILE] T####

positional arguments:
  T####

options:
  -h, --help   show this help message and exit
  --file FILE  alternate catalog CSV (bundled data when omitted)
""",
}


def _help(words) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert run([*words, "--help"]) == EXIT_OK
    return out.getvalue()


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_PYTHON, reason="argparse layout of another Python version"
)
@pytest.mark.parametrize("words", list(_SCREENS), ids=lambda w: " ".join(w) or "top")
def test_help_screen_is_pinned(words, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(words) == _SCREENS[words]


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    for words in _SCREENS:
        print(f"    {words!r}: \"\"\"\\")
        print(_help(words), end="")
        print('""",')
