"""Command-line surface: subcommands, JSON output, exit codes."""

import csv
import gc
import inspect
import json
import os
import platform
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import RATE, speech_like, tone
from ultraband import (
    BandMetrics,
    ModulationConfig,
    PcmClip,
    SampleBuffer,
    analysis,
    cli,
    demodulate_file,
    demodulator,
    modulate,
    modulator,
    read_wav,
    stego,
    to_float,
    to_pcm,
    wavio,
    write_wav,
)
from ultraband.cli import (
    EXIT_DATA,
    EXIT_DETECTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    keep_freed_memory,
    run,
)


def _json_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines() if line]


@pytest.fixture()
def speech_wav(tmp_path):
    path = tmp_path / "speech.wav"
    write_wav(path, to_pcm(speech_like(seed=61)))
    return path


@pytest.fixture()
def modulated_wav(tmp_path, default_config):
    path = tmp_path / "high.wav"
    write_wav(path, to_pcm(modulate(speech_like(seed=62), default_config)))
    return path


# --- modulate / analyze / demodulate ---


def test_modulate_subcommand(tmp_path, speech_wav, capsys):
    out = tmp_path / "out.wav"
    code = run(["modulate", str(speech_wav), str(out)])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    assert payload["leakage_below_carrier_db"] <= -40.0
    assert payload["occupancy_lo_hz"] >= 15800.0
    assert read_wav(out).sample_rate_hz == 48000


def test_modulate_flag_overrides(tmp_path, speech_wav, capsys):
    out = tmp_path / "out96.wav"
    code = run(["modulate", str(speech_wav), str(out), "--rate", "96000"])
    assert code == EXIT_OK
    assert read_wav(out).sample_rate_hz == 96000


def test_modulate_config_file(tmp_path, speech_wav, capsys):
    conf = tmp_path / "mod.conf"
    conf.write_text("working_rate_hz = 96000\n")
    out = tmp_path / "out.wav"
    code = run(["modulate", str(speech_wav), str(out), "--config", str(conf)])
    assert code == EXIT_OK
    assert read_wav(out).sample_rate_hz == 96000


def test_flag_beats_config_file(tmp_path, speech_wav, capsys):
    conf = tmp_path / "mod.conf"
    conf.write_text("working_rate_hz = 96000\n")
    out = tmp_path / "out.wav"
    code = run(["modulate", str(speech_wav), str(out), "--config", str(conf), "--rate", "48000"])
    assert code == EXIT_OK
    assert read_wav(out).sample_rate_hz == 48000


def test_flag_replaces_an_invalid_config_value(tmp_path, speech_wav, capsys):
    # only the merged settings are range-checked (this exited 65 before)
    conf = tmp_path / "bad.conf"
    conf.write_text("carrier_hz = 30000\n")
    out = tmp_path / "out.wav"
    code = run(["modulate", str(speech_wav), str(out), "--config", str(conf), "--carrier", "16000"])
    assert code == EXIT_OK
    assert read_wav(out).sample_rate_hz == 48000


def test_invalid_config_value_is_data_error(tmp_path, speech_wav, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("carrier_hz = 30000\n")  # band cannot fit under Nyquist
    code = run(["modulate", str(speech_wav), str(tmp_path / "x.wav"), "--config", str(conf)])
    assert code == EXIT_DATA


@pytest.mark.parametrize("rate", ["inf", "nan", "1e300"])
def test_unusable_working_rate_is_short_data_error(tmp_path, speech_wav, capsys, rate):
    # inf used to escape run() as an OverflowError; 1e300 printed a 300-digit fraction
    code = run(["modulate", str(speech_wav), str(tmp_path / "x.wav"), "--rate", rate])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err) < 200


def test_analyze_subcommand(modulated_wav, capsys):
    code = run(["analyze", str(modulated_wav)])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    assert payload["leakage_below_carrier_db"] <= -40.0


@pytest.mark.parametrize("rate", [22050, 32000])
def test_analyze_band_above_nyquist_is_data_error(tmp_path, rate, capsys):
    # both used to exit 0 with metrics of a band the file cannot hold
    path = tmp_path / "low_rate.wav"
    write_wav(path, to_pcm(speech_like(seed=64, rate=rate)))
    assert run(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: band [16000.0, 22000.0] Hz does not fit under Nyquist")


def test_analyze_closes_its_file_when_the_band_does_not_fit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "low_rate.wav"
    write_wav(path, to_pcm(speech_like(seed=64, rate=22050)))
    opened = []
    monkeypatch.setattr(cli, "open_wav", lambda p: opened.append(wavio.open_wav(p)) or opened[-1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["analyze", str(path)]) == EXIT_DATA
        gc.collect()
    assert [wav._fh.closed for wav in opened] == [True]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_analyze_data_chunk_past_the_end_is_data_error(tmp_path, capsys):
    path = tmp_path / "short.wav"
    write_wav(path, to_pcm(speech_like(seed=65)))
    raw = bytearray(path.read_bytes())
    raw[40:44] = (len(raw) - 44 + 2).to_bytes(4, "little")  # one frame more than it holds
    path.write_bytes(bytes(raw))
    assert run(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "past end of file" in line


def test_analyze_checks_the_band_at_the_file_rate(tmp_path, capsys):
    # a 96 kHz file used to be checked against the 48 kHz working rate
    # (exit 65) unless --rate 96000 was given
    cfg = ModulationConfig(carrier_hz=20000.0, cutoff_hz=8000.0, working_rate_hz=96000.0)
    path = tmp_path / "h96.wav"
    write_wav(path, to_pcm(modulate(speech_like(seed=65), cfg)))
    band = ["--carrier", "20000", "--cutoff", "8000"]
    assert run(["analyze", str(path), *band]) == EXIT_OK
    # modulate's own settings in a config file do not change what analyze reports
    conf = tmp_path / "mod.conf"
    conf.write_text("working_rate_hz = 48000\nfilter_taps = 31\nnormalize_target = 0.5\n")
    assert run(["analyze", str(path), *band, "--config", str(conf)]) == EXIT_OK
    first, second = _json_lines(capsys)
    assert first == second
    assert first["leakage_below_carrier_db"] <= -40.0


@pytest.mark.parametrize("text, flags", [
    # keys analyze does not read are parsed, then dropped: --taps 4 is a usage error
    ("filter_taps = 4\nnormalize_target = 2\nworking_rate_hz = -1\n", []),
    ("carrier_hz = 15000\ncutoff_hz = 7000\ntukey_alpha = 0.1\n",
     ["--carrier", "15000", "--cutoff", "7000", "--alpha", "0.1"]),
], ids=["unread-keys", "band-and-taper"])
def test_analyze_config_file_sets_the_band_and_taper_only(modulated_wav, tmp_path, capsys,
                                                          text, flags):
    conf = tmp_path / "analyze.conf"
    conf.write_text(text)
    assert run(["analyze", str(modulated_wav), "--config", str(conf)]) == EXIT_OK
    assert run(["analyze", str(modulated_wav), *flags]) == EXIT_OK
    from_file, from_flags = _json_lines(capsys)
    assert from_file == from_flags


@pytest.mark.parametrize("text, error", [
    ("carrier_hz = 20000\n", "does not fit under Nyquist"),
    ("tukey_alpha = 1.5\n", "tukey_alpha"),
    ("filter_taps = four\n", "filter_taps: bad number 'four'"),
    ("taps = 255\n", "unknown key 'taps'"),
], ids=["band", "taper", "bad-number", "unknown-key"])
def test_analyze_config_file_errors_are_data_errors(modulated_wav, tmp_path, capsys, text, error):
    conf = tmp_path / "analyze.conf"
    conf.write_text(text)
    assert run(["analyze", str(modulated_wav), "--config", str(conf)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and error in line


@pytest.mark.parametrize("flag, value", [("--taps", "4"), ("--target", "2"), ("--rate", "96000")])
def test_analyze_takes_no_flag_it_does_not_read(modulated_wav, flag, value, capsys):
    # measure reads the band and the taper only, so a value it would never
    # use is a usage error, not a validation error (65)
    assert run(["analyze", str(modulated_wav), flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_demodulate_subcommand(tmp_path, modulated_wav, capsys):
    out = tmp_path / "recovered.wav"
    code = run(["demodulate", str(modulated_wav), str(out)])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    assert payload["recovered_bandwidth_hz"] > 1000.0
    assert out.exists()


def test_demodulate_phase_search_flag(tmp_path, modulated_wav, capsys):
    out = tmp_path / "recovered.wav"
    assert run(["demodulate", str(modulated_wav), str(out), "--phase-search"]) == EXIT_OK


@pytest.mark.parametrize("flags", [["--taps", "128"], ["--carrier", "0"], ["--cutoff", "-5"]])
def test_demodulate_bad_flag_is_data_error_before_reading(tmp_path, flags, capsys):
    # the config used to be checked only after the input was read (exit 74 here)
    code = run(["demodulate", str(tmp_path / "missing.wav"), str(tmp_path / "x.wav"), *flags])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "missing.wav" not in line


# --- flags, config keys and manifest columns follow the config fields ---

#: A valid non-default value for every config field.
_MOD_VALUES = {
    "carrier_hz": 15000.0,
    "cutoff_hz": 5000.0,
    "tukey_alpha": 0.2,
    "filter_taps": 101,
    "normalize_target": 0.5,
    "working_rate_hz": 96000.0,
}
#: A valid non-default value for every setting of ``demodulate_file``.
_DEMOD_VALUES = {"carrier_hz": 15000.0, "recovery_cutoff_hz": 5000.0, "filter_taps": 101}


def test_value_tables_cover_every_field():
    assert set(_MOD_VALUES) == {f.name for f in fields(ModulationConfig)}
    settings = set(inspect.signature(demodulate_file).parameters) - {
        "in_path", "out_path", "phase_search"
    }
    assert set(_DEMOD_VALUES) == settings == {row[0] for row in cli._DEMOD_PARAMS}


#: The CLI's flag table of each config class and each library function
#: that a subcommand calls.
_FLAG_TABLES = {
    ModulationConfig: cli._MOD_PARAMS,
    demodulate_file: cli._DEMOD_PARAMS,
    analysis.stft: cli._STFT_PARAMS,
    analysis.detect: cli._DETECT_PARAMS,
    stego.embed_file: cli._EMBED_PARAMS,
}


def _flag_rows(source) -> dict:
    """The flag table of ``source`` keyed by parameter name; a config class
    must have one row per field."""
    rows = {row[0]: row for row in _FLAG_TABLES[source]}
    if isinstance(source, type):
        assert set(rows) == {f.name for f in fields(source)}
    return rows


def _flag_labels(source) -> list:
    """(flag, help label) of each flag set from ``source``, a config class or
    a function; the default in the label is read from ``source`` itself."""
    signature = inspect.signature(source).parameters
    return [
        ("--" + flag, f"{help_text} ({signature[name].default:g} [{provenance} default])")
        for name, _default, flag, help_text, provenance in _flag_rows(source).values()
    ]


@pytest.mark.parametrize(
    "command,source,extras",
    [
        ("modulate", ModulationConfig, {"--config"}),
        ("analyze", ModulationConfig, {"--config"}),
        ("batch", ModulationConfig, {"--config", "--report"}),
        ("demodulate", demodulate_file, {"--phase-search"}),
        ("spectrogram", analysis.stft, set()),
        ("detect", analysis.detect, set()),
        ("embed", stego.embed_file, set()),
    ],
)
def test_help_lists_one_flag_per_field(command, source, extras, capsys):
    assert run([command, "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    options = re.findall(r"^\s+(?:-h, )?(--[\w-]+)", text, flags=re.MULTILINE)
    labels = _flag_labels(source)
    if command == "analyze":  # measure reads the band and the taper only
        labels = [label for label in labels if label[0] in {"--carrier", "--cutoff", "--alpha"}]
    assert sorted(options) == sorted(["--help", *extras, *(flag for flag, _ in labels)])
    flat = " ".join(text.split())
    for _flag, label in labels:
        assert label in flat


@pytest.fixture()
def captured_configs(monkeypatch):
    seen = []

    def fake_modulate_file(in_path, out_path, config):
        seen.append(config)
        return BandMetrics(0.0, 0.0, None, 0.0, 0.0)

    def fake_demodulate_file(in_path, out_path, **settings):
        seen.append(settings)
        return 0.0

    monkeypatch.setattr(modulator, "modulate_file", fake_modulate_file)
    monkeypatch.setattr(demodulator, "demodulate_file", fake_demodulate_file)
    return seen


@pytest.mark.parametrize("name", sorted(_MOD_VALUES))
def test_flag_config_key_and_manifest_cell_set_the_same_field(
    name, tmp_path, captured_configs, capsys
):
    value = _MOD_VALUES[name]
    flag = _flag_rows(ModulationConfig)[name][2]
    conf = tmp_path / "one.conf"
    conf.write_text(f"{name} = {value}\n")
    manifest = tmp_path / "manifest.csv"
    _write_manifest(
        manifest, [{"input": "a.wav", "output": "b.wav", name: str(value)}],
        fieldnames=("input", "output", name),
    )
    assert run(["modulate", "a.wav", "b.wav", f"--{flag}", str(value)]) == EXIT_OK
    assert run(["modulate", "a.wav", "b.wav", "--config", str(conf)]) == EXIT_OK
    assert run(["batch", str(manifest), "--report", str(tmp_path / "r.csv")]) == EXIT_OK
    expected = replace(ModulationConfig(), **{name: value})
    assert captured_configs == [expected] * 3


@pytest.mark.parametrize("name", sorted(_DEMOD_VALUES))
def test_demodulate_flag_sets_its_field(name, captured_configs, capsys):
    value = _DEMOD_VALUES[name]
    flag = _flag_rows(demodulate_file)[name][2]
    assert run(["demodulate", "a.wav", "b.wav", f"--{flag}", str(value)]) == EXIT_OK
    assert captured_configs == [{"phase_search": False, name: value}]


def test_non_numeric_config_value_names_the_key(tmp_path, speech_wav, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("carrier_hz = 16000\nfilter_taps = many\n")
    code = run(["modulate", str(speech_wav), str(tmp_path / "x.wav"), "--config", str(conf)])
    assert code == EXIT_DATA
    assert f"{conf}:2: filter_taps: bad number 'many'" in capsys.readouterr().err


def test_non_numeric_manifest_cell_names_the_column(tmp_path, speech_wav, capsys):
    manifest = tmp_path / "manifest.csv"
    report = tmp_path / "r.csv"
    _write_manifest(
        manifest,
        [{"input": str(speech_wav), "output": str(tmp_path / "o.wav"), "tukey_alpha": "wide"}],
        fieldnames=("input", "output", "tukey_alpha"),
    )
    assert run(["batch", str(manifest), "--report", str(report)]) == EXIT_OK
    with open(report, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "tukey_alpha: bad number 'wide'"


# --- spectrogram ---


def test_spectrogram_subcommand(tmp_path, modulated_wav, capsys):
    out = tmp_path / "spec.pgm"
    code = run(["spectrogram", str(modulated_wav), str(out)])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    header = out.read_bytes().split(b"\n", 3)
    assert header[0] == b"P5"
    width, height = map(int, header[1].split())
    assert (width, height) == (payload["frames"], payload["bins"])


def test_spectrogram_renders_channel_zero(tmp_path, capsys):
    # channel 1 is a loud 17 kHz tone; channel 0 is speech-like audio
    speech = to_pcm(speech_like(seed=62)).samples
    loud = np.round(30000 * np.sin(2 * np.pi * 17000 * np.arange(speech.size) / RATE))
    path = tmp_path / "stereo.wav"
    write_wav(path, PcmClip(np.stack([speech, loud.astype(np.int16)], axis=1).ravel(), int(RATE), 2))
    out = tmp_path / "spec.pgm"
    assert run(["spectrogram", str(path), str(out)]) == EXIT_OK
    payload = _json_lines(capsys)[0]
    for channel in (0, 1):
        spec = analysis.stft(to_float(read_wav(path), channel=channel))
        analysis.render_spectrogram(spec, tmp_path / f"ch{channel}.pgm")
        assert (payload["frames"], payload["bins"]) == spec.magnitudes_db.shape
    assert out.read_bytes() == (tmp_path / "ch0.pgm").read_bytes()
    assert out.read_bytes() != (tmp_path / "ch1.pgm").read_bytes()


# --- detect ---


def test_detect_clean_exits_zero(speech_wav, capsys):
    code = run(["detect", str(speech_wav)])
    assert code == EXIT_OK
    assert _json_lines(capsys)[0]["flagged"] is False


def test_detect_modulated_exits_two(modulated_wav, capsys):
    code = run(["detect", str(modulated_wav)])
    assert code == EXIT_DETECTED
    payload = _json_lines(capsys)[0]
    assert payload["flagged"] is True
    assert payload["score"] >= 0.8


def test_detect_threshold_flag(modulated_wav, capsys):
    # an absurdly high ratio threshold silences the detector
    code = run(["detect", str(modulated_wav), "--threshold", "1e12"])
    assert code == EXIT_OK


@pytest.mark.parametrize("flag", ["--threshold", "--sustain-ms"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_detect_non_finite_setting_is_data_error(modulated_wav, flag, value, capsys):
    # each used to report this flagged clip as clean (exit 0)
    assert run(["detect", str(modulated_wav), flag, value]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and line.endswith(f" {value} must be positive and finite")


def test_shared_parser_keeps_no_flag_value(modulated_wav, capsys):
    # the parser is built once per process; a flag given to one call must
    # not reach the next
    assert build_parser() is build_parser()
    assert run(["detect", str(modulated_wav), "--threshold", "1e9"]) == EXIT_OK
    assert run(["detect", str(modulated_wav)]) == EXIT_DETECTED


# --- embed ---


def test_embed_subcommand(tmp_path, modulated_wav, capsys):
    host = tmp_path / "host.wav"
    write_wav(host, to_pcm(speech_like(duration_s=4.0, seed=63, pauses=[(1.0, 3.5)])))
    out = tmp_path / "mixed.wav"
    code = run(["embed", str(host), str(modulated_wav), str(out), "--gain", "0.5"])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    assert payload["insertion"]["start_sample"] >= 0
    assert run(["detect", str(out)]) == EXIT_DETECTED


@pytest.fixture()
def silent_host_wav(tmp_path):
    path = tmp_path / "silent_host.wav"
    write_wav(path, to_pcm(SampleBuffer(np.zeros(3 * int(RATE)), RATE)))
    return path


@pytest.mark.parametrize(
    "flag,value",
    [("frame-ms", "inf"), ("frame-ms", "nan"), ("rms-threshold", "nan"),
     ("min-region-ms", "nan"), ("min-region-ms", "inf")],
)
def test_embed_non_finite_silence_setting_is_named(
    tmp_path, silent_host_wav, modulated_wav, flag, value, capsys
):
    # --frame-ms inf escaped run() as an OverflowError, nan printed numpy's
    # cast error, and the others were reported as "no silent region found"
    argv = ["embed", str(silent_host_wav), str(modulated_wav), str(tmp_path / "x.wav")]
    assert run([*argv, f"--{flag}", value]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag.replace("-", "_")
    assert captured.err == f"error: {name} {value} must be positive and finite\n"


def test_embed_frame_longer_than_host_is_one_block(
    tmp_path, silent_host_wav, modulated_wav, capsys
):
    # used to fail with numpy's "Maximum allowed dimension exceeded"
    out = tmp_path / "mixed.wav"
    argv = ["embed", str(silent_host_wav), str(modulated_wav), str(out), "--frame-ms", "1e300"]
    assert run(argv) == EXIT_OK
    (region,) = _json_lines(capsys)[0]["silent_regions"]
    assert (region["start_sample"], region["end_sample"]) == (0, 3 * int(RATE))


def test_embed_no_room_is_data_error(tmp_path, modulated_wav, capsys):
    host = tmp_path / "busy.wav"
    write_wav(host, to_pcm(tone(440.0, amp=0.9)))
    code = run(["embed", str(host), str(modulated_wav), str(tmp_path / "x.wav")])
    assert code == EXIT_DATA


#: (host, payload, exit code, the one stderr line) of each embed error, the
#: payload ``high.wav`` being speech modulated up to 18.8 kHz.
_EMBED_ERRORS = [
    ("missing.wav", "high.wav", EXIT_IO, "i/o error: cannot read {dir}/missing.wav: "
     "[Errno 2] No such file or directory: '{dir}/missing.wav'"),
    ("host.wav", "missing.wav", EXIT_IO, "i/o error: cannot read {dir}/missing.wav: "
     "[Errno 2] No such file or directory: '{dir}/missing.wav'"),
    ("mp3.wav", "high.wav", EXIT_DATA, "error: {dir}/mp3.wav: MP3 data, not PCM WAV"),
    ("host.wav", "mp3.wav", EXIT_DATA, "error: {dir}/mp3.wav: MP3 data, not PCM WAV"),
    ("short.wav", "high.wav", EXIT_DATA, "error: {dir}/short.wav: chunk b'data' runs past end of file"),
    ("host.wav", "short.wav", EXIT_DATA, "error: {dir}/short.wav: chunk b'data' runs past end of file"),
    ("1hz.wav", "high.wav", EXIT_DATA, "error: host rate 1.0 Hz cannot carry content up to 18824 Hz"),
    ("8khz.wav", "high.wav", EXIT_DATA,
     "error: host rate 8000.0 Hz cannot carry content up to 18824 Hz"),
    # 2048 samples at 1 Hz are 98.3 M at 48 kHz: refused before resampling
    ("host.wav", "1hz_2048.wav", EXIT_DATA,
     "error: longest silent region holds 120000 samples, payload needs 98304000"),
    ("96khz.wav", "1hz_2048.wav", EXIT_DATA,
     "error: 1.0 -> 96000.0 Hz needs an up or down factor above MAX_RESAMPLE_FACTOR = 65536"),
    ("busy.wav", "high.wav", EXIT_DATA, "error: no silent region found"),
]


@pytest.mark.parametrize("host,payload,code,line", _EMBED_ERRORS,
                         ids=[f"{h}-{p}" for h, p, _, _ in _EMBED_ERRORS])
def test_embed_error_contract(tmp_path, modulated_wav, monkeypatch, capsys, host, payload, code,
                              line):
    write_wav(tmp_path / "host.wav", to_pcm(speech_like(duration_s=4.0, seed=63, pauses=[(1.0, 3.5)])))
    write_wav(tmp_path / "busy.wav", to_pcm(tone(440.0, amp=0.9)))
    write_wav(tmp_path / "8khz.wav",
              to_pcm(speech_like(duration_s=4.0, seed=63, rate=8000.0, pauses=[(1.0, 3.5)])))
    write_wav(tmp_path / "1hz.wav", PcmClip(np.zeros(4096, dtype=np.int16), 1))
    write_wav(tmp_path / "96khz.wav", PcmClip(np.zeros(96000, dtype=np.int16), 96000))
    write_wav(tmp_path / "1hz_2048.wav",
              PcmClip(np.random.default_rng(1).integers(-9000, 9000, 2048), 1))
    (tmp_path / "mp3.wav").write_bytes(b"ID3\x04\x00" + bytes(100))
    raw = bytearray(modulated_wav.read_bytes())
    raw[40:44] = (len(raw) - 44 + 2).to_bytes(4, "little")  # one frame more than it holds
    (tmp_path / "short.wav").write_bytes(bytes(raw))
    resampled = []
    monkeypatch.setattr(stego, "resample", lambda *args: resampled.append(args))
    out = tmp_path / "out.wav"

    assert run(["embed", str(tmp_path / host), str(tmp_path / payload), str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line.format(dir=tmp_path)]
    assert not out.exists() and resampled == []


# --- catalog / survey ---


def test_catalog_list(capsys):
    code = run(["catalog", "list"])
    assert code == EXIT_OK
    lines = _json_lines(capsys)
    assert len(lines) == 20
    assert all(line["ultrasonic_applicable"] for line in lines)


def test_catalog_pair(capsys):
    code = run(["catalog", "pair", "T1189"])
    assert code == EXIT_OK
    lines = _json_lines(capsys)
    assert len(lines) == 1
    assert lines[0]["defend_technique_id"] == "D3-T1023"


def test_catalog_pair_unknown(capsys):
    code = run(["catalog", "pair", "T9999"])
    assert code == EXIT_OK
    assert _json_lines(capsys) == []


def test_survey_totals(capsys):
    code = run(["survey"])
    assert code == EXIT_OK
    payload = _json_lines(capsys)[0]
    assert payload["nuit"] == {
        "fail_n": 8,
        "trigger_n": 13,
        "success_n": 29,
        "fail_pct": 16,
        "trigger_pct": 26,
        "success_pct": 58,
    }
    assert payload["original"]["success_n"] == 50
    assert payload["records"] == 50


def test_survey_custom_file(tmp_path, capsys):
    path = tmp_path / "mini.csv"
    path.write_text(
        "id,command,original_outcome,nuit_outcome,wrong_command\n"
        "0,Help,success,trigger,true\n"
    )
    code = run(["survey", str(path)])
    assert code == EXIT_OK
    assert _json_lines(capsys)[0]["nuit"]["trigger_n"] == 1


def test_survey_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("id,command\n0,Help\n")
    assert run(["survey", str(path)]) == EXIT_DATA


# --- batch ---


def _write_manifest(path, rows, fieldnames=("input", "output")):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)


def test_batch_processes_manifest_in_order(tmp_path, capsys):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, to_pcm(speech_like(duration_s=1.0, seed=71)))
    write_wav(b, to_pcm(tone(700.0, duration_s=1.0)))
    manifest = tmp_path / "manifest.csv"
    report = tmp_path / "report.csv"
    _write_manifest(
        manifest,
        [
            {"input": str(b), "output": str(tmp_path / "b_out.wav")},
            {"input": str(a), "output": str(tmp_path / "a_out.wav")},
        ],
    )
    code = run(["batch", str(manifest), "--report", str(report)])
    assert code == EXIT_OK
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["input"] for r in rows] == [str(b), str(a)]  # manifest order
    assert all(r["error"] == "" for r in rows)
    assert all(float(r["leakage_db"]) <= -40.0 for r in rows)
    summary = _json_lines(capsys)[0]
    assert summary["files"] == 2
    assert summary["failed"] == 0


def test_batch_failing_row_gets_error_marker(tmp_path, capsys):
    good = tmp_path / "good.wav"
    write_wav(good, to_pcm(tone(500.0, duration_s=1.0)))
    manifest = tmp_path / "manifest.csv"
    report = tmp_path / "report.csv"
    _write_manifest(
        manifest,
        [
            {"input": str(tmp_path / "missing.wav"), "output": str(tmp_path / "x.wav")},
            {"input": str(good), "output": str(tmp_path / "good_out.wav")},
        ],
    )
    code = run(["batch", str(manifest), "--report", str(report)])
    assert code == EXIT_OK  # per-row failures are reported, not fatal
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["error"] != ""
    assert rows[1]["error"] == ""
    assert _json_lines(capsys)[0]["failed"] == 1


def test_batch_per_row_override(tmp_path, capsys):
    src = tmp_path / "in.wav"
    write_wav(src, to_pcm(tone(900.0, duration_s=1.0)))
    manifest = tmp_path / "manifest.csv"
    _write_manifest(
        manifest,
        [{"input": str(src), "output": str(tmp_path / "out.wav"), "working_rate_hz": "96000"}],
        fieldnames=("input", "output", "working_rate_hz"),
    )
    code = run(["batch", str(manifest), "--report", str(tmp_path / "r.csv")])
    assert code == EXIT_OK
    assert read_wav(tmp_path / "out.wav").sample_rate_hz == 96000


def test_batch_duplicate_outputs_rejected(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    out = tmp_path / "same.wav"
    _write_manifest(
        manifest,
        [
            {"input": str(tmp_path / "a.wav"), "output": str(out)},
            {"input": str(tmp_path / "b.wav"), "output": str(out)},
        ],
    )
    assert run(["batch", str(manifest), "--report", str(tmp_path / "r.csv")]) == EXIT_DATA


def test_batch_unknown_column_rejected(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    _write_manifest(
        manifest,
        [{"input": "a", "output": "b", "volume": "11"}],
        fieldnames=("input", "output", "volume"),
    )
    assert run(["batch", str(manifest), "--report", str(tmp_path / "r.csv")]) == EXIT_DATA


def test_batch_manifest_without_path_columns_rejected(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    _write_manifest(manifest, [{"input": "a"}], fieldnames=("input",))
    assert run(["batch", str(manifest), "--report", str(tmp_path / "r.csv")]) == EXIT_DATA
    assert "manifest needs 'input' and 'output' columns" in capsys.readouterr().err


# --- exit codes ---


def test_non_finite_flag_values_are_data_errors(
    tmp_path, speech_wav, modulated_wav, silent_host_wav, capsys
):
    """nan, inf and -inf given to any float flag exit 65 with one error line
    and no output; an int flag rejects them while parsing (exit 64)."""
    out = str(tmp_path / "out")
    commands = [
        (cli._MOD_PARAMS, ["modulate", str(speech_wav), out]),
        (cli._DEMOD_PARAMS, ["demodulate", str(modulated_wav), out]),
        (cli._STFT_PARAMS, ["spectrogram", str(speech_wav), out]),
        (cli._DETECT_PARAMS, ["detect", str(modulated_wav)]),
        (cli._EMBED_PARAMS, ["embed", str(silent_host_wav), str(modulated_wav), out]),
    ]
    wrong = []
    for params, argv in commands:
        for _name, default, flag, *_ in params:
            expected = EXIT_DATA if isinstance(default, float) else EXIT_USAGE
            for value in ("nan", "inf", "-inf"):
                try:
                    code = run([*argv, f"--{flag}={value}"])  # "=": -inf is no option
                except Exception as exc:  # an exception escaping run() is a failure too
                    code = repr(exc)
                captured = capsys.readouterr()
                lines = captured.err.splitlines()
                prefix = "error: " if expected == EXIT_DATA else "usage error: "
                one_line = len(lines) == 1 and lines[0].startswith(prefix)
                if (code, captured.out, one_line) != (expected, "", True):
                    wrong.append((argv[0], flag, value, code, captured.err))
    assert wrong == []


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["transmogrify", "x.wav"]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(tmp_path, capsys):
    assert run(["detect", "x.wav", "--threshold", "high"]) == EXIT_USAGE


def test_missing_input_is_io_error(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "ghost.wav")]) == EXIT_IO


def test_unreadable_format_is_data_error(tmp_path, capsys):
    path = tmp_path / "fake.wav"
    path.write_bytes(b"ID3\x03\x00" + b"\x00" * 32)
    assert run(["analyze", str(path)]) == EXIT_DATA


def test_unwritable_output_is_io_error(speech_wav, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "out.wav"
    assert run(["modulate", str(speech_wav), str(out)]) == EXIT_IO


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK


def test_subcommand_help_exits_zero(capsys):
    assert run(["modulate", "--help"]) == EXIT_OK


# --- allocator ---

_GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _GLIBC, reason="the allocator setting is glibc's mallopt")
def test_keep_freed_memory_is_accepted():
    assert keep_freed_memory() is True


# Starts a thread that allocates after keep_freed_memory; malloc_stats then
# prints one "Arena N:" line per arena to stderr.
_ARENA_CHILD = """
import ctypes, threading
import numpy as np
from ultraband.cli import keep_freed_memory
assert keep_freed_memory()
worker = threading.Thread(target=lambda: [np.ones(20000) for _ in range(50)])
worker.start()
worker.join()
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(not _GLIBC, reason="the allocator setting is glibc's mallopt")
def test_keep_freed_memory_keeps_one_arena():
    # without the arena setting the worker's blocks land in a second arena
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _ARENA_CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert re.findall(r"^Arena \d+:", done.stderr, re.M) == ["Arena 0:"]


@pytest.mark.skipif(not _GLIBC, reason="the allocator setting is glibc's mallopt")
def test_repeated_operation_reuses_freed_memory(tmp_path, capsys):
    """The second identical modulate faults in almost no fresh pages.

    An 18 s clip of prime length builds arrays of up to ~30 MB; with
    glibc's default thresholds the heap top is handed back between calls
    and the repeat takes tens of thousands of minor faults.
    """
    path, out = tmp_path / "long.wav", tmp_path / "long_high.wav"
    write_wav(path, to_pcm(speech_like(duration_s=864007 / RATE, seed=63)))
    assert run(["modulate", str(path), str(out)]) == EXIT_OK
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(["modulate", str(path), str(out)]) == EXIT_OK
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
