"""ultraband benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload covert_roundtrip --seed 1 --seconds 12 --trace 0

The seeded corpus of the workload is written to a directory of its own under
``.perfbench_work/`` before anything is timed, and removed at the end. One
spawned child then imports ``ultraband`` from ``src/``, runs one warm-up
operation, and drives ``ultraband.cli.run`` in a closed loop (one client, one
operation at a time) over whole passes of the corpus. The number of passes is
``--seconds`` divided by the workload's nominal pass time on the reference
machine (2 cores): a run measures about that long there, and both sides of a
comparison time the same operations. Every operation's output is checked
afterwards, outside the timed region, by ``oracle.py``. Timing metrics take
each operation at its fastest pass (see ``end_to_end``).

``--trace 0`` reports the end-to-end metrics; ``setup_s`` and the bare-import
RSS come from separate fresh interpreters, run one after another before the
workload child. ``--trace 1`` follows every pass with the same pass run
with spans installed around ultraband's public functions (``spans.py``) and
reports the per-layer metrics, per pass. Human-readable lines go first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
TAIL_BEYOND = 10
#: Every child must have finished this long after start, so a run ends within 180 s.
RUN_BUDGET_S = 165.0
WORKLOAD_NAMES = ("covert_roundtrip", "phase_recover", "scan_archive", "batch_embed")


def _run_child(task: str, args: tuple, deadline: float):
    """Run ``worker.TASKS[task](*args)`` in a fresh interpreter.

    Returns (result, seconds from start to result). A child that has not
    answered by ``deadline`` (a ``time.perf_counter`` value) is killed; every
    child is waited for before this returns.
    """
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), task, str(write_fd)],
                            stdin=subprocess.PIPE, pass_fds=(write_fd,), cwd=ROOT)
    os.close(write_fd)
    chunks = []
    try:
        proc.stdin.write(pickle.dumps(args))
        proc.stdin.close()
        while True:
            ready, _, _ = select.select([read_fd], [], [], max(deadline - time.perf_counter(), 0.0))
            if not ready:
                raise RuntimeError(f"{task} gave no result within the run's time budget")
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        elapsed = time.perf_counter() - start
    finally:
        os.close(read_fd)
        try:
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not chunks:
        raise RuntimeError(f"{task} exited with code {proc.returncode}")
    return pickle.loads(b"".join(chunks)), elapsed


def tail(values: list):
    """Highest percentile with at least TAIL_BEYOND values above it.

    Returns (value, percentile, values beyond). With too few values it is
    the maximum, with fewer than TAIL_BEYOND beyond it.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(ops, records, passes, peak_rss_mb, setup_s, failed):
    """The end-to-end metrics: name -> (value, unit, sample count, note).

    Every operation runs once per pass on identical inputs, so its own cost
    is the same in each pass; what differs is how much other load on the
    host slowed that pass down (up to ~40% on the 2-vCPU reference machine,
    in phases of seconds to minutes). Each operation is therefore timed at
    its fastest pass, and throughput, median and tail are taken over all
    operations at those times. Raw per-pass times go to the result file.
    """
    best = {}
    for r in records:
        best[r["op"]] = min(best.get(r["op"], r["wall"]), r["wall"])
    times = [best[r["op"]] for r in records]
    throughput = sum(ops[r["op"]]["audio_s"] for r in records) / sum(times)
    tail_s, pct, beyond = tail(times)
    attempted = len(records)
    return {
        "audio_s_per_s": (throughput, "s/s", attempted, f"{passes} passes, best pass per op"),
        "latency_p50_ms": (1000.0 * statistics.median(times), "ms", attempted, "best pass per op"),
        "latency_tail_ms": (1000.0 * tail_s, "ms", attempted,
                            f"p{pct:.1f}, {beyond} ops beyond, best pass per op"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "ru_maxrss of the workload child"),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s), "median of fresh interpreters"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted, f"failed={failed}"),
    }


def per_layer(layers: list, untraced_walls: list, traced_walls: list):
    """Per-layer metrics: name -> (value, unit, sample count, note), plus count drift."""
    from spans import layer_metrics

    per_pass = [layer_metrics(t) for t in layers]
    metrics, drift = {}, []
    for name, (value, unit, kind) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if kind == "count":
            if len(set(values)) != 1:
                drift.append(name)
            metrics[name] = (value, unit, len(values), "per pass, exact")
        else:
            metrics[name] = (statistics.median(values), unit, len(values), "per pass, median")
    ratios = [t / u for t, u in zip(traced_walls, untraced_walls)]
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%", len(traced_walls),
                                     "median of traced / untraced wall of the same pass")
    return metrics, drift


def _pass_walls(records, traced: bool) -> list:
    walls = {}
    for r in records:
        if r["traced"] == traced:
            walls[r["pass_"]] = walls.get(r["pass_"], 0.0) + r["wall"]
    return [walls[p] for p in sorted(walls)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultraband" / "__init__.py").is_file():
        print(f"perfbench: no ultraband sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        wl, _ = _run_child("generate", (args.workload, str(work), args.seed), deadline)
        setup_s, baseline_mb = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                rss, elapsed = _run_child("setup_probe", (str(SRC), wl["warmup"]), deadline)
                setup_s.append(elapsed)
                baseline_mb.append(rss)
        passes = max(2, round(args.seconds / wl["pass_s"]))
        result, _ = _run_child(
            "run_workload",
            (str(SRC), wl["ops"], wl["warmup"], passes, bool(args.trace), str(spans_path)),
            deadline,
        )
        records = result["records"]
        # Checks import numpy and scipy: only now, after the last child has started.
        import oracle
        from worker import sha256

        final = [[sha256(path) for path in op["outputs"]] for op in wl["ops"]]
        reasons = oracle.check(wl["ops"], records, final)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reasons if r)
    for reason in sorted({r for r in reasons if r}):
        print(f"# FAILED {args.workload}: {reason}")
    correct = failed == 0
    untraced = [r for r in records if not r["traced"]]
    import numpy
    import scipy

    print(f"# env python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))}")
    print(f"# corpus {args.workload} seed={args.seed} clips={wl['clips']} "
          f"audio_s={wl['audio_s']:.1f} rates={'/'.join(str(r) for r in wl['rates'])} "
          f"length_s={wl['length_s'][0]:.2f}-{wl['length_s'][1]:.2f} "
          f"ops_per_pass={len(wl['ops'])} generate_s={wl['generate_s']:.1f}")
    walls = _pass_walls(records, False)
    print(f"# run passes={passes} ops={len(untraced)} seconds={args.seconds:g} "
          f"pass_wall_s={' '.join(f'{w:.3f}' for w in walls)}")
    if args.trace:
        metrics, drift = per_layer(result["layers"], walls, _pass_walls(records, True))
        reference = {r["op"]: (r["rc"], r["stdout"], r["hashes"]) for r in untraced}
        mismatched = sum(1 for r in records if r["traced"]
                         and (r["rc"], r["stdout"], r["hashes"]) != reference[r["op"]])
        print(f"# traced outputs byte-identical to untraced: {mismatched == 0} "
              f"({mismatched} ops differ); spans in {spans_path.relative_to(ROOT)}")
        for name in drift:
            print(f"# FAILED {args.workload}: count metric {name} differs between passes")
        correct = correct and mismatched == 0 and not drift
    else:
        metrics = end_to_end(wl["ops"], untraced, passes, result["peak_rss_mb"],
                             setup_s, failed)
        print(f"# rss_baseline_mb={statistics.median(baseline_mb):.1f} "
              f"(interpreter that only imported ultraband) "
              f"setup_probe_s={' '.join(f'{s:.3f}' for s in setup_s)}")
    for name, (value, unit, count, note) in metrics.items():
        note = f" ({note})" if note else ""
        print(f"{args.workload} {name} {value:.6g} {unit} n={count}{note}")
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(v[0]), "unit": v[1]} for name, v in metrics.items()},
    }
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_probe_s": setup_s, "rss_baseline_mb": baseline_mb,
               "metrics": {name: {"value": float(v[0]), "unit": v[1], "n": v[2], "note": v[3]}
                           for name, v in metrics.items()},
               "ops": [{"kind": op["kind"], "audio_s": op["audio_s"]} for op in wl["ops"]],
               "records": [{k: r[k] for k in ("op", "pass_", "traced", "wall", "rc")}
                           for r in records]}
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
