"""Command-line front end.

Machine-readable results go to stdout as one JSON object per line;
human diagnostics go to stderr. Exit codes follow sysexits where it makes
sense: 0 success, 2 high-band content detected, 64 usage, 65 bad data or
configuration, 74 I/O failure.

Default provenance in ``--help``: values marked [method default] are the
published operating point of the modulation scheme itself; values marked
[tool default] are choices made by this implementation.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import inspect
import json
import sys
from dataclasses import asdict, fields, replace

from . import analysis, catalog, demodulator, modulator, stego
from .errors import IoFailure, UltrabandError, opened
from .wavio import open_wav

EXIT_OK = 0
EXIT_DETECTED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

#: glibc ``mallopt`` parameters (malloc.h) and the values ``run`` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_TRIM_THRESHOLD_BYTES = 128 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through our own codes.
    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def _signature_params(fn, table: dict) -> list:
    """(name, default, flag, help, provenance) of each parameter of ``fn``, a
    function or a dataclass, that ``table`` maps to (flag, help, provenance);
    the default is read from the signature of ``fn``."""
    signature = inspect.signature(fn).parameters
    return [(name, signature[name].default, *spec) for name, spec in table.items()]


_MOD_PARAMS = _signature_params(modulator.ModulationConfig, {
    "carrier_hz": ("carrier", "carrier frequency, Hz", "method"),
    "cutoff_hz": ("cutoff", "baseband low-pass cutoff, Hz", "method"),
    "tukey_alpha": ("alpha", "Tukey taper fraction", "tool"),
    "filter_taps": ("taps", "least SSB filter length, odd", "tool"),
    "normalize_target": ("target", "output peak level", "tool"),
    "working_rate_hz": ("rate", "working sample rate, Hz", "tool"),
})
_ANALYZE_PARAMS = _MOD_PARAMS[:3]  # measure reads the band and the taper only
_DEMOD_PARAMS = _signature_params(demodulator.demodulate_file, {
    "carrier_hz": ("carrier", "carrier frequency, Hz", "method"),
    "recovery_cutoff_hz": ("cutoff", "recovery low-pass cutoff, Hz", "method"),
    "filter_taps": ("taps", "FIR length, odd", "tool"),
})
_STFT_PARAMS = _signature_params(analysis.stft, {
    "frame_len": ("frame", "frame length, samples", "tool"),
    "hop": ("hop", "hop, samples", "tool"),
    "alpha": ("window-alpha", "Tukey alpha for the analysis window; 1.0 = Hann", "tool"),
})
_DETECT_PARAMS = _signature_params(analysis.detect, {
    "carrier_hz": ("carrier", "attack band start, Hz", "method"),
    "band_hz": ("band", "attack band width, Hz", "method"),
    "ratio_threshold": ("threshold", "attack/speech energy ratio to flag a frame", "tool"),
    "sustain_ms": ("sustain-ms", "minimum flagged run length, ms", "tool"),
})
_EMBED_PARAMS = _signature_params(stego.embed_file, {
    "gain": ("gain", "payload mix gain", "tool"),
    "rms_threshold": ("rms-threshold", "silence RMS threshold", "tool"),
    "frame_ms": ("frame-ms", "silence scan frame, ms", "tool"),
    "min_region_ms": ("min-region-ms", "shortest usable silent region, ms", "tool"),
})


def _add_flags(p: argparse.ArgumentParser, params: list) -> None:
    """One flag per parameter; unset flags parse as None."""
    for _name, default, flag, help_text, provenance in params:
        p.add_argument(f"--{flag}", type=type(default),
                       help=f"{help_text} ({default:g} [{provenance} default])")


def _flag_values(args, params: list) -> dict:
    """Values given on the command line, keyed by parameter name."""
    given = {name: getattr(args, flag.replace("-", "_")) for name, _d, flag, *_ in params}
    return {name: value for name, value in given.items() if value is not None}


def _mod_config(args, params=_MOD_PARAMS, **fixed) -> modulator.ModulationConfig:
    """The config file's values of ``params``, then the flags, then ``fixed``: each wins."""
    from_file = modulator.read_config(args.config) if args.config else {}
    kept = {name: from_file[name] for name, *_ in params if name in from_file}
    return modulator.ModulationConfig(**{**kept, **_flag_values(args, params), **fixed})


def _add_mod_flags(p: argparse.ArgumentParser, params=_MOD_PARAMS) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value config file read before flags")
    _add_flags(p, params)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(
        prog="ultraband",
        description="Move speech into the 16-22 kHz near-ultrasound band and back; "
        "measure, detect, and embed such signals; query the attack/defense catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("modulate", _cmd_modulate, "shift a WAV into the high band")
    p.add_argument("input")
    p.add_argument("output")
    _add_mod_flags(p)

    p = command("demodulate", _cmd_demodulate, "recover baseband audio from a high-band WAV")
    p.add_argument("input")
    p.add_argument("output")
    _add_flags(p, _DEMOD_PARAMS)
    p.add_argument("--phase-search", action="store_true",
                   help=f"try {demodulator.PHASE_CANDIDATES} carrier phases, keep the "
                   "strongest (for recordings)")

    p = command("analyze", _cmd_analyze, "band metrics of a WAV (leakage, occupancy, suppression)")
    p.add_argument("input")
    _add_mod_flags(p, _ANALYZE_PARAMS)

    p = command("spectrogram", _cmd_spectrogram, "render a WAV to a grayscale PGM image")
    p.add_argument("input")
    p.add_argument("output")
    _add_flags(p, _STFT_PARAMS)

    p = command("detect", _cmd_detect, "flag sustained 16-22 kHz content (exit 2 when flagged)")
    p.add_argument("input")
    _add_flags(p, _DETECT_PARAMS)

    p = command("embed", _cmd_embed, "hide a payload WAV in the silence of a host WAV")
    p.add_argument("host")
    p.add_argument("payload")
    p.add_argument("output")
    _add_flags(p, _EMBED_PARAMS)

    p = command("catalog", _cmd_catalog, "query the attack/defense technique catalog")
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)
    c = cat_sub.add_parser("list", help="print every catalog entry")
    c.add_argument("--file", help="alternate catalog CSV (bundled data when omitted)")
    c = cat_sub.add_parser("pair", help="defensive techniques paired with one attack ID")
    c.add_argument("technique_id", metavar="T####")
    c.add_argument("--file", help="alternate catalog CSV (bundled data when omitted)")

    p = command("survey", _cmd_survey, "aggregate a command survey CSV")
    p.add_argument("file", nargs="?", help="survey CSV (bundled 50-command data when omitted)")

    p = command("batch", _cmd_batch, "modulate every file named in a manifest CSV")
    p.add_argument("manifest", help="CSV with input,output and optional per-row config columns")
    p.add_argument("--report", required=True, help="where to write the per-file metrics CSV")
    _add_mod_flags(p)

    return parser


# --- subcommand bodies ---


def _cmd_modulate(args) -> int:
    metrics = modulator.modulate_file(args.input, args.output, _mod_config(args))
    _emit({"input": args.input, "output": args.output, **asdict(metrics)})
    return EXIT_OK


def _cmd_demodulate(args) -> int:
    bandwidth = demodulator.demodulate_file(
        args.input, args.output, phase_search=args.phase_search, **_flag_values(args, _DEMOD_PARAMS)
    )
    _emit({"input": args.input, "output": args.output, "recovered_bandwidth_hz": bandwidth})
    return EXIT_OK


def _cmd_analyze(args) -> int:
    with open_wav(args.input) as signal:  # read a block at a time
        # the band is checked against the file's rate, not modulate's working rate
        config = _mod_config(args, _ANALYZE_PARAMS, working_rate_hz=signal.sample_rate_hz)
        _emit({"input": args.input, **asdict(analysis.measure(signal, config))})
    return EXIT_OK


def _cmd_spectrogram(args) -> int:
    with open_wav(args.input) as signal:  # read a block at a time
        spec = analysis.stft(signal, **_flag_values(args, _STFT_PARAMS))
    analysis.render_spectrogram(spec, args.output)
    _emit(
        {
            "input": args.input,
            "output": args.output,
            "frames": int(spec.magnitudes_db.shape[0]),
            "bins": int(spec.magnitudes_db.shape[1]),
        }
    )
    return EXIT_OK


def _cmd_detect(args) -> int:
    with open_wav(args.input) as signal:  # read a block at a time
        verdict = analysis.detect(signal, **_flag_values(args, _DETECT_PARAMS))
    _emit(
        {
            "input": args.input,
            "flagged": verdict.flagged,
            "score": verdict.score,
            "sustained_ms": verdict.sustained_ms,
            "frames": int(verdict.frame_flags.size),
        }
    )
    return EXIT_DETECTED if verdict.flagged else EXIT_OK


def _cmd_embed(args) -> int:
    report = stego.embed_file(
        args.host, args.payload, args.output, **_flag_values(args, _EMBED_PARAMS)
    )
    _emit({"host": args.host, "payload": args.payload, "output": args.output, **report})
    return EXIT_OK


def _cmd_catalog(args) -> int:
    entries = catalog.load_catalog(args.file)
    if args.catalog_command == "pair":
        entries = catalog.pair_defense(args.technique_id, entries)
        if not entries:
            _say(f"no catalog entry for {args.technique_id}")
    for entry in entries:
        _emit(asdict(entry))
    return EXIT_OK


def _cmd_survey(args) -> int:
    records = catalog.load_survey(args.file)
    totals = catalog.aggregate_survey(records)
    payload = {}
    for arm_name in ("original", "nuit"):
        arm = getattr(totals, arm_name)
        pcts = {f"{o}_pct": getattr(arm, f"{o}_pct") for o in catalog.OUTCOMES}
        payload[arm_name] = {**asdict(arm), **pcts}
    payload["records"] = len(records)
    _emit(payload)
    return EXIT_OK


_REPORT_FIELDS = [
    "input",
    "output",
    "leakage_db",
    "suppression_db",
    "occupancy_lo",
    "occupancy_hi",
    "error",
]


def _read_manifest(path) -> list:
    with opened(path, "r", "manifest ", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"input", "output"} <= set(reader.fieldnames):
            raise UltrabandError(f"{path}: manifest needs 'input' and 'output' columns")
        columns = {"input", "output", *(f.name for f in fields(modulator.ModulationConfig))}
        unknown = set(reader.fieldnames) - columns
        if unknown:
            raise UltrabandError(f"{path}: unknown manifest columns {sorted(unknown)}")
        return list(reader)


def _cmd_batch(args) -> int:
    base = _mod_config(args)
    rows = _read_manifest(args.manifest)
    for column in ("input", "output"):
        paths = [r[column] for r in rows]
        if len(set(paths)) != len(paths):
            raise UltrabandError(f"{args.manifest}: duplicate {column} paths")

    report_rows = []
    failures = 0
    for row in rows:
        record = dict.fromkeys(_REPORT_FIELDS, "")
        record.update(input=row["input"], output=row["output"])
        try:
            overrides = {
                f.name: modulator.parse_field(f.name, row[f.name])
                for f in fields(modulator.ModulationConfig)
                if (row.get(f.name) or "").strip()
            }
            cfg = replace(base, **overrides)
            metrics = modulator.modulate_file(row["input"], row["output"], cfg)
        except (UltrabandError, OSError, ValueError) as exc:
            failures += 1
            record["error"] = str(exc)
            _say(f"batch: {row['input']}: {exc}")
        else:
            record["leakage_db"] = f"{metrics.leakage_below_carrier_db:.3f}"
            record["suppression_db"] = (
                "" if metrics.sideband_suppression_db is None
                else f"{metrics.sideband_suppression_db:.3f}"
            )
            record["occupancy_lo"] = f"{metrics.occupancy_lo_hz:.1f}"
            record["occupancy_hi"] = f"{metrics.occupancy_hi_hz:.1f}"
        report_rows.append(record)

    with opened(args.report, "w", "report ", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(report_rows)

    _emit(
        {
            "manifest": args.manifest,
            "report": args.report,
            "files": len(rows),
            "ok": len(rows) - failures,
            "failed": failures,
        }
    )
    return EXIT_OK


@functools.cache
def keep_freed_memory() -> bool:
    """Let glibc keep up to 128 MB of freed heap for the next operation.

    By default glibc hands the top of its heap back to the kernel once a
    few megabytes there are free, and serves blocks of a few megabytes
    from fresh mappings. Every operation builds and drops whole-signal
    arrays (and numpy's FFT its work buffers), so each one faulted those
    pages in again: about 47k minor faults per pass of the benchmark's
    ``batch_embed`` corpus and 80k per ``covert_roundtrip`` pass. On a
    virtual machine that returns freed memory to its host, the cost of a
    fault follows the host's load, so run times varied with it. With the
    heap kept, a repeated operation takes almost no faults; freed blocks
    are reused first, so the peak RSS of those two workloads did not
    move. Blocks of 32 MB or more are still mapped and unmapped on their
    own. One arena serves every thread: in an arena of its own, the scratch
    of a worker thread (``kernels._framed``'s) sat beside the main heap and
    added about 4.5 MB to the peak RSS of the ``covert_roundtrip`` benchmark.
    Returns whether glibc accepted all three settings; elsewhere nothing
    changes and the result is False.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
        and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        and mallopt(_M_ARENA_MAX, 1)
    )


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code.

    The first call tunes the C allocator for the process (``keep_freed_memory``).
    """
    keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    try:
        return args.handler(args)
    except (IoFailure, OSError) as exc:
        _say(f"i/o error: {exc}")
        return EXIT_IO
    except (UltrabandError, ValueError) as exc:
        _say(f"error: {exc}")
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
