"""Golden outputs of the command line on a fixed synthetic corpus.

Every subcommand that writes or prints runs once through ``cli.run`` in a
fresh directory, on clips from ``conftest.speech_like`` and ``tone``. The
test pins:

* the exit code of every call;
* each JSON line, with floats rounded to 9 significant digits;
* the SHA-256 of every file written (WAVs, the spectrogram image);
* the batch report CSV, byte for byte;
* the bytes ``save_catalog``/``save_survey`` write for the bundled data.

A refactor keeps every value. A numerical change re-pins them in the same
change and states its bound. ``PYTHONPATH=src python tests/test_golden.py``
prints the observed values in the layout of the pins below.
"""

import csv
import hashlib
import json
import os
import pprint
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from conftest import RATE, speech_like, tone
from ultraband import SampleBuffer, read_wav, to_float, to_pcm, write_wav
from ultraband.catalog import load_catalog, load_survey, save_catalog, save_survey
from ultraband.cli import run

SIG_DIGITS = 9

_MANIFEST = [
    {"input": "speech.wav", "output": "b_speech.wav", "filter_taps": "101"},
    {"input": "tone.wav", "output": "b_tone.wav", "tukey_alpha": "0.2", "normalize_target": "0.5"},
    {"input": "speech22.wav", "output": "b_speech22.wav", "carrier_hz": "20000",
     "cutoff_hz": "8000", "working_rate_hz": "96000"},
    {"input": "missing.wav", "output": "b_missing.wav"},
    {"input": "tone2.wav", "output": "b_tone2.wav", "filter_taps": "254"},
]

_CALLS = [
    ["modulate", "speech.wav", "high.wav"],
    ["modulate", "speech22.wav", "high22.wav", "--taps", "127", "--alpha", "0.1"],
    ["modulate", "speech.wav", "high_cfg.wav", "--config", "mod.conf", "--target", "0.7"],
    ["analyze", "high.wav"],
    ["analyze", "high_cfg.wav", "--config", "mod.conf"],
    ["demodulate", "high.wav", "low.wav"],
    ["demodulate", "cropped.wav", "low_ps.wav", "--phase-search"],
    ["demodulate", "high_cfg.wav", "low_cfg.wav", "--carrier", "15000", "--cutoff", "5000",
     "--taps", "201"],
    ["spectrogram", "high.wav", "spec.pgm", "--frame", "1024", "--hop", "512"],
    ["detect", "speech.wav"],
    ["detect", "high.wav"],
    ["embed", "host.wav", "high.wav", "mixed.wav", "--gain", "0.4"],
    ["detect", "mixed.wav"],
    ["batch", "manifest.csv", "--report", "report.csv", "--alpha", "0.08"],
    ["catalog", "pair", "T1189"],
    ["survey"],
    ["modulate", "speech.wav", "x.wav", "--config", "bad.conf"],
    ["demodulate", "high.wav", "x.wav", "--carrier", "20000"],
    ["analyze", "ghost.wav"],
    ["detect", "speech.wav", "--threshold", "high"],
    ["modulate", "odd.wav", "high_odd.wav"],
    ["demodulate", "high_odd.wav", "low_odd.wav"],
]


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.{SIG_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value


def _write_corpus(root: Path) -> None:
    write_wav(root / "speech.wav", to_pcm(speech_like(duration_s=1.5, seed=11)))
    write_wav(root / "speech22.wav", to_pcm(speech_like(duration_s=1.0, seed=12, rate=22050.0)))
    write_wav(root / "tone.wav", to_pcm(tone(700.0, duration_s=1.0)))
    write_wav(root / "tone2.wav", to_pcm(tone(1100.0, duration_s=0.5)))
    # 48017 samples is prime: recovered_bandwidth pads its transform
    write_wav(root / "odd.wav", to_pcm(speech_like(duration_s=48017 / RATE, seed=14)))
    write_wav(root / "host.wav", to_pcm(speech_like(duration_s=3.0, seed=13, pauses=[(0.6, 2.7)])))
    (root / "mod.conf").write_text("# lower band\ncarrier_hz = 15000\ncutoff_hz = 5000\n")
    (root / "bad.conf").write_text("carrier_hz = 30000\n")
    with open(root / "manifest.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["input", "output", "carrier_hz", "cutoff_hz", "tukey_alpha",
                        "filter_taps", "normalize_target", "working_rate_hz"],
        )
        writer.writeheader()
        writer.writerows(_MANIFEST)


def _crop(root: Path, src: str, dst: str, offset: int) -> None:
    clip = to_float(read_wav(root / src), channel=0)
    write_wav(root / dst, to_pcm(SampleBuffer(clip.samples[offset:], clip.sample_rate_hz)))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(root: Path) -> dict:
    """Run the fixed call sequence in ``root`` and collect what it produced."""
    root = Path(root)
    _write_corpus(root)
    before = set(os.listdir(root))
    codes, lines = [], []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in _CALLS:
            if "cropped.wav" in argv:
                _crop(root, "high.wav", "cropped.wav", 1234)
            out = StringIO()
            with redirect_stdout(out):
                codes.append(run(argv))
            lines.extend(_round(json.loads(line)) for line in out.getvalue().splitlines())
    finally:
        os.chdir(cwd)
    written = sorted(set(os.listdir(root)) - before - {"cropped.wav", "report.csv"})
    save_catalog(load_catalog(), root / "catalog.csv")
    save_survey(load_survey(), root / "survey.csv")
    return {
        "exit_codes": codes,
        "json_lines": lines,
        "files": {name: _sha(root / name) for name in written},
        "report_csv": (root / "report.csv").read_bytes().decode("utf-8"),
        "catalog_csv": _sha(root / "catalog.csv"),
        "survey_csv": _sha(root / "survey.csv"),
    }


GOLDEN = {'exit_codes': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 65, 65, 74, 64, 0, 0],
          'json_lines': [{'input': 'speech.wav',
                          'output': 'high.wav',
                          'inband_energy_db': 35.6667454,
                          'leakage_below_carrier_db': -90.0962622,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16236.3281,
                          'occupancy_hi_hz': 19148.4375},
                         {'input': 'speech22.wav',
                          'output': 'high22.wav',
                          'inband_energy_db': 32.5497162,
                          'leakage_below_carrier_db': -88.8762411,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16236.3281,
                          'occupancy_hi_hz': 20332.0312},
                         {'input': 'speech.wav',
                          'output': 'high_cfg.wav',
                          'inband_energy_db': 33.0181427,
                          'leakage_below_carrier_db': -87.7495926,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 15234.375,
                          'occupancy_hi_hz': 17642.5781},
                         {'input': 'high.wav',
                          'inband_energy_db': 35.6667454,
                          'leakage_below_carrier_db': -90.0962622,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16236.3281,
                          'occupancy_hi_hz': 19148.4375},
                         {'input': 'high_cfg.wav',
                          'inband_energy_db': 33.0181427,
                          'leakage_below_carrier_db': -87.7495926,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 15234.375,
                          'occupancy_hi_hz': 17642.5781},
                         {'input': 'high.wav', 'output': 'low.wav', 'recovered_bandwidth_hz': 3120.0},
                         {'input': 'cropped.wav', 'output': 'low_ps.wav', 'recovered_bandwidth_hz': 3120.0},
                         {'input': 'high_cfg.wav',
                          'output': 'low_cfg.wav',
                          'recovered_bandwidth_hz': 2640.0},
                         {'input': 'high.wav', 'output': 'spec.pgm', 'frames': 139, 'bins': 513},
                         {'input': 'speech.wav',
                          'flagged': False,
                          'score': 0.0,
                          'sustained_ms': 0.0,
                          'frames': 59},
                         {'input': 'high.wav',
                          'flagged': True,
                          'score': 1.0,
                          'sustained_ms': 1500.0,
                          'frames': 59},
                         {'host': 'host.wav',
                          'payload': 'high.wav',
                          'output': 'mixed.wav',
                          'host_rate_hz': 48000.0,
                          'gain': 0.4,
                          'rms_threshold': 0.01,
                          'min_region_ms': 500.0,
                          'silent_regions': [{'start_sample': 28800,
                                              'end_sample': 129600,
                                              'start_s': 0.6,
                                              'duration_s': 2.1}],
                          'insertion': {'start_sample': 28800,
                                        'end_sample': 100800,
                                        'start_s': 0.6,
                                        'duration_s': 1.5}},
                         {'input': 'mixed.wav',
                          'flagged': True,
                          'score': 0.504201681,
                          'sustained_ms': 1525.0,
                          'frames': 119},
                         {'manifest': 'manifest.csv',
                          'report': 'report.csv',
                          'files': 5,
                          'ok': 3,
                          'failed': 2},
                         {'attack_tactic': 'Initial Access',
                          'attack_technique_id': 'T1189',
                          'attack_technique_name': 'Drive-by Compromise',
                          'defend_tactic': 'User Training',
                          'defend_technique_id': 'D3-T1023',
                          'defend_technique_name': 'Security Awareness Training',
                          'ultrasonic_applicable': True},
                         {'original': {'fail_n': 0,
                                       'trigger_n': 0,
                                       'success_n': 50,
                                       'fail_pct': 0,
                                       'trigger_pct': 0,
                                       'success_pct': 100},
                          'nuit': {'fail_n': 8,
                                   'trigger_n': 13,
                                   'success_n': 29,
                                   'fail_pct': 16,
                                   'trigger_pct': 26,
                                   'success_pct': 58},
                          'records': 50},
                         {'input': 'odd.wav',
                          'output': 'high_odd.wav',
                          'inband_energy_db': 33.5505339,
                          'leakage_below_carrier_db': -90.1238862,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16236.3281,
                          'occupancy_hi_hz': 19365.2344},
                         {'input': 'high_odd.wav',
                          'output': 'low_odd.wav',
                          'recovered_bandwidth_hz': 3406.41975}],
          'files': {'b_speech.wav': '79751b82d1c86cacd04923403e6e29a172c45244b3d45be464d545ccada531a1',
                    'b_speech22.wav': '10c05844815cab03cfff4de86002db605452ed7b5c89035cc0475425fb19faca',
                    'b_tone.wav': '6d3f0520a4435bbe7c51d7e2c06ab5e05a80f435dd59693fd042360bcf3774fc',
                    'high.wav': 'c02de26fc8d0b944baa2a752733a7c81c8e025c5bca00216999b10260ff038fe',
                    'high22.wav': 'a858d1c68d9291653ce03b30c9467b53281dc93bcbe7773fa2a68cc2b7682b43',
                    'high_cfg.wav': '58c419949ff14e0eab61d648eba79013fb4e60b2e9c8c845b8c4a5c13ec0d027',
                    'high_odd.wav': 'e4a733a6234110f47084116cd50b88a0b338f4dc567880eaa820e752576ae377',
                    'low.wav': 'ea522cf2d92604d0f8ebabf2b3e58034bd23025ef585b92ed74290e86e273fd1',
                    'low_cfg.wav': '9d99ba4dfd27dde305f2792691d1dbe047c5a5129fe6b280227079973d47ae53',
                    'low_odd.wav': '2404ec84c27e4ebcbbc5deb69a10c385273b41426c486ffea0e840ba47b9ed69',
                    'low_ps.wav': '04fe6411a4e9c12a0968cea179230ae4e0dcb2f284c1f0d87448bf8225ceccdc',
                    'mixed.wav': '2b47fb7314c0a1278ac628fe73ac199ec00130f6f6776ef726b4ab27229be63d',
                    'spec.pgm': 'e316593185bbe8414941b8978333046836ed7e0552bfdc2416f9bbfd44e0bf68'},
          'report_csv': 'input,output,leakage_db,suppression_db,occupancy_lo,occupancy_hi,error\r\n'
                        'speech.wav,b_speech.wav,-90.147,,16236.3,19148.4,\r\n'
                        'tone.wav,b_tone.wav,-91.502,-96.847,16693.4,16705.1,\r\n'
                        'speech22.wav,b_speech22.wav,-91.419,,20238.3,26179.7,\r\n'
                        'missing.wav,b_missing.wav,,,,,cannot read missing.wav: [Errno 2] No such file '
                        "or directory: 'missing.wav'\r\n"
                        'tone2.wav,b_tone2.wav,,,,,filter_taps 254 must be an odd integer >= 3\r\n',
          'catalog_csv': '029039cf6048e1b401337ee3cd67613af5e6723d2ed823e6249bbf151c4d168e',
          'survey_csv': '57d6ca45422e0e0c871baf99c396508e5c0a0a6839e4400c5a7210c473ad35aa'}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return observe(tmp_path_factory.mktemp("golden"))


def test_exit_codes(golden_run):
    assert golden_run["exit_codes"] == GOLDEN["exit_codes"]


def test_json_lines(golden_run):
    assert golden_run["json_lines"] == GOLDEN["json_lines"]
    # key order is part of the output too
    assert json.dumps(golden_run["json_lines"]) == json.dumps(GOLDEN["json_lines"])


def test_written_files(golden_run):
    assert golden_run["files"] == GOLDEN["files"]


def test_batch_report(golden_run):
    assert golden_run["report_csv"] == GOLDEN["report_csv"]


def test_data_csv_bytes(golden_run):
    assert golden_run["catalog_csv"] == GOLDEN["catalog_csv"]
    assert golden_run["survey_csv"] == GOLDEN["survey_csv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(observe(Path(tmp)), width=100, sort_dicts=False)
