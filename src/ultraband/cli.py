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
import json
import sys
from dataclasses import asdict, fields, replace

from . import analysis, catalog, demodulator, modulator, stego
from .errors import IoFailure, UltrabandError
from .kernels import WindowSpec
from .wavio import read_wav, to_float

EXIT_OK = 0
EXIT_DETECTED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

#: glibc ``mallopt`` parameters (malloc.h) and the values ``run`` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
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


def _add_field_flags(p: argparse.ArgumentParser, config_cls) -> None:
    """One flag per field of ``config_cls``, named and described by its metadata."""
    for f in fields(config_cls):
        meta = f.metadata
        p.add_argument(f"--{meta['flag']}", type=type(f.default),
                       help=f"{meta['help']} ({f.default:g} [{meta['provenance']} default])")


def _flag_values(args, config_cls) -> dict:
    """Field values given on the command line, keyed by field name."""
    return {
        f.name: getattr(args, f.metadata["flag"])
        for f in fields(config_cls)
        if getattr(args, f.metadata["flag"]) is not None
    }


def _mod_config(args) -> modulator.ModulationConfig:
    cfg = modulator.load_config(args.config) if args.config else modulator.ModulationConfig()
    cfg = replace(cfg, **_flag_values(args, modulator.ModulationConfig))
    cfg.validate()
    return cfg


def _add_mod_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value config file read before flags")
    _add_field_flags(p, modulator.ModulationConfig)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ultraband",
        description="Move speech into the 16-22 kHz near-ultrasound band and back; "
        "measure, detect, and embed such signals; query the attack/defense catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modulate", help="shift a WAV into the high band")
    p.add_argument("input")
    p.add_argument("output")
    _add_mod_flags(p)

    p = sub.add_parser("demodulate", help="recover baseband audio from a high-band WAV")
    p.add_argument("input")
    p.add_argument("output")
    _add_field_flags(p, demodulator.DemodulationConfig)
    p.add_argument("--phase-search", action="store_true",
                   help="try 16 carrier phases, keep the strongest (for recordings)")

    p = sub.add_parser("analyze", help="band metrics of a WAV (leakage, occupancy, suppression)")
    p.add_argument("input")
    _add_mod_flags(p)

    p = sub.add_parser("spectrogram", help="render a WAV to a grayscale PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--frame", type=int, default=2048, help="frame length, samples (2048 [tool default])")
    p.add_argument("--hop", type=int, default=1024, help="hop, samples (1024 [tool default])")
    p.add_argument("--window-alpha", type=float, default=1.0,
                   help="Tukey alpha for the analysis window; 1.0 = Hann (1.0 [tool default])")

    p = sub.add_parser("detect", help="flag sustained 16-22 kHz content (exit 2 when flagged)")
    p.add_argument("input")
    p.add_argument("--carrier", type=float, default=16000.0,
                   help="attack band start, Hz (16000 [method default])")
    p.add_argument("--band", type=float, default=6000.0,
                   help="attack band width, Hz (6000 [method default])")
    p.add_argument("--threshold", type=float, default=4.0,
                   help="attack/speech energy ratio to flag a frame (4.0 [tool default])")
    p.add_argument("--sustain-ms", type=float, default=200.0,
                   help="minimum flagged run length, ms (200 [tool default])")

    p = sub.add_parser("embed", help="hide a payload WAV in the silence of a host WAV")
    p.add_argument("host")
    p.add_argument("payload")
    p.add_argument("output")
    p.add_argument("--gain", type=float, default=0.5, help="payload mix gain (0.5 [tool default])")
    p.add_argument("--rms-threshold", type=float, default=0.01,
                   help="silence RMS threshold (0.01 [tool default])")
    p.add_argument("--frame-ms", type=float, default=20.0,
                   help="silence scan frame, ms (20 [tool default])")
    p.add_argument("--min-region-ms", type=float, default=500.0,
                   help="shortest usable silent region, ms (500 [tool default])")

    p = sub.add_parser("catalog", help="query the attack/defense technique catalog")
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)
    c = cat_sub.add_parser("list", help="print every catalog entry")
    c.add_argument("--file", help="alternate catalog CSV (bundled data when omitted)")
    c = cat_sub.add_parser("pair", help="defensive techniques paired with one attack ID")
    c.add_argument("technique_id", metavar="T####")
    c.add_argument("--file", help="alternate catalog CSV (bundled data when omitted)")

    p = sub.add_parser("survey", help="aggregate a command survey CSV")
    p.add_argument("file", nargs="?", default=None,
                   help="survey CSV (bundled 50-command data when omitted)")

    p = sub.add_parser("batch", help="modulate every file named in a manifest CSV")
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
    cfg = demodulator.DemodulationConfig(**_flag_values(args, demodulator.DemodulationConfig))
    bandwidth = demodulator.demodulate_file(
        args.input, args.output, cfg, phase_search=args.phase_search
    )
    _emit({"input": args.input, "output": args.output, "recovered_bandwidth_hz": bandwidth})
    return EXIT_OK


def _cmd_analyze(args) -> int:
    signal = to_float(read_wav(args.input), channel=0)
    metrics = analysis.measure(signal, _mod_config(args))
    _emit({"input": args.input, **asdict(metrics)})
    return EXIT_OK


def _cmd_spectrogram(args) -> int:
    signal = to_float(read_wav(args.input), channel=0)
    spec = analysis.stft(
        signal, args.frame, args.hop, WindowSpec(kind="tukey", alpha=args.window_alpha, length=0)
    )
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
    signal = to_float(read_wav(args.input), channel=0)
    verdict = analysis.detect(
        signal,
        carrier_hz=args.carrier,
        band_hz=args.band,
        ratio_threshold=args.threshold,
        sustain_ms=args.sustain_ms,
    )
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
        args.host,
        args.payload,
        args.output,
        gain=args.gain,
        rms_threshold=args.rms_threshold,
        frame_ms=args.frame_ms,
        min_region_ms=args.min_region_ms,
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
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"input", "output"} <= set(reader.fieldnames):
                raise UltrabandError(f"{path}: manifest needs 'input' and 'output' columns")
            columns = {"input", "output", *(f.name for f in fields(modulator.ModulationConfig))}
            unknown = set(reader.fieldnames) - columns
            if unknown:
                raise UltrabandError(f"{path}: unknown manifest columns {sorted(unknown)}")
            return list(reader)
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from exc


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

    try:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
            writer.writeheader()
            writer.writerows(report_rows)
    except OSError as exc:
        raise IoFailure(f"cannot write report {args.report}: {exc}") from exc

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


_HANDLERS = {
    "modulate": _cmd_modulate,
    "demodulate": _cmd_demodulate,
    "analyze": _cmd_analyze,
    "spectrogram": _cmd_spectrogram,
    "detect": _cmd_detect,
    "embed": _cmd_embed,
    "catalog": _cmd_catalog,
    "survey": _cmd_survey,
    "batch": _cmd_batch,
}


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
    own. Returns whether glibc accepted both settings; elsewhere nothing
    changes and the result is False.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
        and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
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
        return _HANDLERS[args.command](args)
    except IoFailure as exc:
        _say(f"i/o error: {exc}")
        return EXIT_IO
    except UltrabandError as exc:
        _say(f"error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
