"""Child-process side of the benchmark: closed-loop calls into ``cli.run``.

Each task here runs in a fresh interpreter started by ``run.py`` as
``python3 worker.py TASK FD``: it reads its pickled arguments from stdin and
writes its pickled result to file descriptor FD. Its import of ultraband, its
peak RSS and its timings therefore belong to one workload alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import sys
import time
import traceback


def _import_ultraband(src: str):
    """Import the package from ``src`` and refuse any other copy."""
    sys.path.insert(0, src)
    import ultraband
    from ultraband import cli

    if not os.path.abspath(ultraband.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"ultraband imported from {ultraband.__file__}, not {src}")
    return ultraband, cli


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _run_op(cli, op: dict) -> dict:
    """One closed-loop operation: a single timed ``cli.run`` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op["argv"])
    except Exception:  # an escaped exception is a failed operation, not a crash
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"wall": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "hashes": [sha256(p) for p in op["outputs"]]}


def generate(name: str, work: str, seed: int) -> dict:
    """Write the corpus in a child, so the parent's RSS high-water mark (which
    Linux carries over into every process it later starts) stays small."""
    from pathlib import Path

    import corpus

    start = time.perf_counter()
    workload = corpus.build(name, Path(work), seed)
    return dict(vars(workload), generate_s=time.perf_counter() - start)


def setup_probe(src: str, warmup: dict) -> float:
    """Import ultraband, note the RSS of a bare import, run the warm-up op."""
    _, cli = _import_ultraband(src)
    rss = _maxrss_mb()
    _run_op(cli, warmup)
    return rss


def _run_pass(cli, ops: list, index: int, traced: bool) -> list:
    return [dict(_run_op(cli, op), op=i, pass_=index, traced=traced) for i, op in enumerate(ops)]


def run_workload(src: str, ops: list, warmup: dict, passes: int,
                 trace: bool, spans_path: str) -> dict:
    """Run ``passes`` whole passes over ``ops``, one operation at a time.

    With ``trace`` every untraced pass is followed by the same pass with spans
    installed, so slow phases of a shared machine fall on both sides alike,
    and the per-pass layer totals come back with the records.
    """
    ultraband, cli = _import_ultraband(src)
    _run_op(cli, warmup)
    records, layers = [], []
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    for index in range(passes):
        records += _run_pass(cli, ops, index, traced=False)
        if tracer is not None:
            tracer.install(ultraband)
            try:
                records += _run_pass(cli, ops, index, traced=True)
            finally:
                tracer.uninstall()
            layers.append(tracer.take())
    result = {"peak_rss_mb": _maxrss_mb(), "records": records, "layers": layers}
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fields = ("id", "parent", "name", "start", "end", "op")
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
    return result


TASKS = {"generate": generate, "setup_probe": setup_probe, "run_workload": run_workload}

if __name__ == "__main__":
    task, fd = sys.argv[1], int(sys.argv[2])
    payload = TASKS[task](*pickle.load(sys.stdin.buffer))
    with os.fdopen(fd, "wb") as out:
        pickle.dump(payload, out)
