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
    # 48017 samples is prime: modulate and demodulate pad their transforms
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
                          'inband_energy_db': 35.4096755,
                          'leakage_below_carrier_db': -88.4243435,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16119.1406,
                          'occupancy_hi_hz': 19054.6875},
                         {'input': 'speech22.wav',
                          'output': 'high22.wav',
                          'inband_energy_db': 32.9121618,
                          'leakage_below_carrier_db': -89.3828839,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16125.0,
                          'occupancy_hi_hz': 20197.2656},
                         {'input': 'speech.wav',
                          'output': 'high_cfg.wav',
                          'inband_energy_db': 32.7271184,
                          'leakage_below_carrier_db': -84.5761226,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 15123.0469,
                          'occupancy_hi_hz': 17607.4219},
                         {'input': 'high.wav',
                          'inband_energy_db': 35.4096755,
                          'leakage_below_carrier_db': -88.4243435,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16119.1406,
                          'occupancy_hi_hz': 19054.6875},
                         {'input': 'high_cfg.wav',
                          'inband_energy_db': 32.7271184,
                          'leakage_below_carrier_db': -84.5761226,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 15123.0469,
                          'occupancy_hi_hz': 17607.4219},
                         {'input': 'high.wav', 'output': 'low.wav', 'recovered_bandwidth_hz': 3000.0},
                         {'input': 'cropped.wav',
                          'output': 'low_ps.wav',
                          'recovered_bandwidth_hz': 3000.0},
                         {'input': 'high_cfg.wav',
                          'output': 'low_cfg.wav',
                          'recovered_bandwidth_hz': 2524.0},
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
                          'inband_energy_db': 33.3998403,
                          'leakage_below_carrier_db': -88.0554647,
                          'sideband_suppression_db': None,
                          'occupancy_lo_hz': 16125.0,
                          'occupancy_hi_hz': 19242.1875},
                         {'input': 'high_odd.wav',
                          'output': 'low_odd.wav',
                          'recovered_bandwidth_hz': 3325.4321}],
          'files': {'b_speech.wav': 'cd3a6703fd9ecbadc43097b648116cd9753e27c3163033416d215de3681e57cf',
                    'b_speech22.wav': '7af1e63025af68d177e521836efee678eaabbf3cfe82c63ff2e69d7597575409',
                    'b_tone.wav': '6804f7715f96db5669774d2c450bda99a65e587943c1ce6f65507703714c186a',
                    'high.wav': '6f3738919aa63b9cb856ff8ec6cb1ca497aae92067edac208e4c9cbc494a4fc3',
                    'high22.wav': 'f58a25b480dc4f2031373bd3d32fd0203215763d99db48196221a7fdb6e94c32',
                    'high_cfg.wav': 'a0be55ade7ce1a11a47ee5be206568965a57e6e126e2688b0293ba9deb50b6bf',
                    'high_odd.wav': 'a3826a5b80dff4efc84b9a346f26e8272e74d2f5a9faf075b840438d260f4580',
                    'low.wav': 'c8340f817212a1dbaaba70b5c3ac2da9797c402881100a91503506bd9b09549d',
                    'low_cfg.wav': 'f53ae3a603fbe51d8c84998d273181ebc0b725673df85ff2a8112e4a131cdb57',
                    'low_odd.wav': '0f19eeed111f2a516c3b609b6125eb4ab5889ca2bfae75bc8494af8d9bae6815',
                    'low_ps.wav': '864f786643e62b00fa315690ced03c1248f67d1ca02d1596c87a7e4caf5afe13',
                    'mixed.wav': 'b07fa248dfeab5b52c8a6739b58fa3ef8d02ab49dd7b51feda853d738976ddfc',
                    'spec.pgm': 'd24b15e9f6bcadb375a2a78137edcf7253c20629fc41b66c44a474ef9d41a0ae'},
          'report_csv': 'input,output,leakage_db,suppression_db,occupancy_lo,occupancy_hi,error\r\n'
                        'speech.wav,b_speech.wav,-78.161,,16119.1,18996.1,\r\n'
                        'tone.wav,b_tone.wav,-93.565,-113.029,16693.4,16705.1,\r\n'
                        'speech22.wav,b_speech22.wav,-91.654,,20121.1,25992.2,\r\n'
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
