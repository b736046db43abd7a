"""Command-line surface: subcommands, JSON output, exit codes."""

import csv
import inspect
import json
import platform
import re
import resource
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import RATE, speech_like, tone
from ultraband import (
    BandMetrics,
    DemodulationConfig,
    ModulationConfig,
    analysis,
    cli,
    demodulator,
    modulate,
    modulator,
    read_wav,
    stego,
    to_pcm,
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
_DEMOD_VALUES = {"carrier_hz": 15000.0, "recovery_cutoff_hz": 5000.0, "filter_taps": 101}


def test_value_tables_cover_every_field():
    assert set(_MOD_VALUES) == {f.name for f in fields(ModulationConfig)}
    assert set(_DEMOD_VALUES) == {f.name for f in fields(DemodulationConfig)}


#: The CLI's flag table of each config class and each library function
#: that a subcommand calls.
_FLAG_TABLES = {
    ModulationConfig: cli._MOD_PARAMS,
    DemodulationConfig: cli._DEMOD_PARAMS,
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
        ("demodulate", DemodulationConfig, {"--phase-search"}),
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

    def fake_demodulate_file(in_path, out_path, config, phase_search=False):
        seen.append(config)
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
    flag = _flag_rows(DemodulationConfig)[name][2]
    assert run(["demodulate", "a.wav", "b.wav", f"--{flag}", str(value)]) == EXIT_OK
    assert captured_configs == [replace(DemodulationConfig(), **{name: value})]


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


def test_embed_no_room_is_data_error(tmp_path, modulated_wav, capsys):
    host = tmp_path / "busy.wav"
    write_wav(host, to_pcm(tone(440.0, amp=0.9)))
    code = run(["embed", str(host), str(modulated_wav), str(tmp_path / "x.wav")])
    assert code == EXIT_DATA


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
