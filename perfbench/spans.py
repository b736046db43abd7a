"""In-memory spans around ultraband's public functions, for the traced run.

The package's modules import functions by name (``from .kernels import
apply_filter``), so wrapping the defining module alone would miss most
calls. ``Tracer.install`` replaces every module attribute that is bound to a
traced function, in every loaded ``ultraband`` module, and ``uninstall``
puts the originals back. Nothing inside the package changes.

A span is ``(id, parent id, name, start, end, operation)``; a function's self
time is its span's duration minus the time covered by its child spans. Counts
are taken at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

#: Public functions wrapped per module: those the benchmark's CLI calls reach.
#: ``catalog`` is deliberately left out; no workload's time depends on it.
PUBLIC = {
    "wavio": ("read_wav", "write_wav", "to_float", "to_pcm"),
    "kernels": ("design_lowpass", "apply_filter", "hilbert", "tukey_window",
                "peak_normalize", "resample"),
    "modulator": ("modulate", "modulate_file"),
    "demodulator": ("demodulate", "demodulate_file", "recovered_bandwidth"),
    "analysis": ("measure", "detect"),
    "stego": ("find_silence", "embed", "embed_file"),
    "cli": ("run",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects spans and per-pass totals while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []  # [name, span id, child seconds]
        self._next_id = 0
        self._op = -1
        self._written = set()
        self._patched = []
        self._reset()

    def _reset(self):
        self._incl = defaultdict(float)
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        self._designs = set()

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        wrappers = {}
        for short, names in PUBLIC.items():
            module = sys.modules[f"{package.__name__}.{short}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{short}.{name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _within(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            c = self._counts
            if name == "cli.run":
                self._op += 1
                self._written = set()
            elif name == "wavio.read_wav":
                path = os.path.abspath(_arg(args, kwargs, 0, "path"))
                size = os.path.getsize(path)
                c["wavio.bytes_read"] += size
                if path in self._written:
                    c["wavio.reread_bytes"] += size
            elif name == "kernels.apply_filter":
                c["kernels.apply_filter.samples"] += len(_arg(args, kwargs, 1, "signal"))
                if self._within("demodulator.demodulate"):
                    c["demodulator.filter_passes"] += 1
            elif name == "kernels.hilbert":
                c["kernels.hilbert.samples"] += len(_arg(args, kwargs, 0, "signal"))
            elif name == "kernels.resample" and self._within("stego.embed_file"):
                c["stego.embed_file.resamples"] += 1
            elif name == "kernels.design_lowpass":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._designs.add(tuple(float(v) for v in bound.arguments.values()))

        def after(args, kwargs, result):
            if name == "wavio.write_wav":
                path = os.path.abspath(_arg(args, kwargs, 0, "path"))
                self._counts["wavio.bytes_written"] += os.path.getsize(path)
                self._written.add(path)
            elif name == "analysis.detect":
                self._counts["analysis.detect.frames"] += int(result.frame_flags.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                before(args, kwargs)
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                self._incl[name] += elapsed
                self._self[name] += elapsed - frame[2]
                self._counts[name + ".calls"] += 1
                if parent is not None:
                    parent[2] += elapsed
                self.spans.append(
                    (frame[1], parent[1] if parent else None, name, start, end, self._op)
                )

        return traced

    # -- per-pass totals ----------------------------------------------------

    def take(self) -> dict:
        """Return the totals since the last call and start new ones."""
        totals = {
            "incl_s": dict(self._incl),
            "self_s": dict(self._self),
            "counts": dict(self._counts),
            "distinct_designs": len(self._designs),
        }
        self._reset()
        return totals


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one pass: name -> (value, unit, kind).

    ``kind`` is ``"time"`` for timings, which vary run to run, and
    ``"count"`` for counts and ratios of counts, which must repeat exactly.
    """
    incl, own, counts = totals["incl_s"], totals["self_s"], totals["counts"]

    def ms(name):
        return (1000.0 * incl.get(name, 0.0), "ms", "time")

    def self_ms(name):
        return (1000.0 * own.get(name, 0.0), "ms", "time")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio", "count")

    def count(key, unit="count"):
        return (counts.get(key, 0), unit, "count")

    calls = {key[: -len(".calls")]: n for key, n in counts.items() if key.endswith(".calls")}
    out = {
        "wavio.read_wav.ms": ms("wavio.read_wav"),
        "wavio.to_float.ms": ms("wavio.to_float"),
        "wavio.bytes_read": count("wavio.bytes_read", "bytes"),
        "wavio.write_wav.ms": ms("wavio.write_wav"),
        "wavio.to_pcm.ms": ms("wavio.to_pcm"),
        "wavio.bytes_written": count("wavio.bytes_written", "bytes"),
        "wavio.reread_ratio": ratio(counts.get("wavio.reread_bytes", 0),
                                    counts.get("wavio.bytes_written", 0)),
        "kernels.apply_filter.ms": ms("kernels.apply_filter"),
        "kernels.apply_filter.samples": count("kernels.apply_filter.samples"),
        "kernels.hilbert.ms": ms("kernels.hilbert"),
        "kernels.hilbert.samples": count("kernels.hilbert.samples"),
        "kernels.resample.ms": ms("kernels.resample"),
        "kernels.resample.calls": count("kernels.resample.calls"),
        "kernels.design_lowpass.ms": ms("kernels.design_lowpass"),
        "kernels.design_lowpass.calls": count("kernels.design_lowpass.calls"),
        "kernels.design_lowpass.distinct_ratio": ratio(totals["distinct_designs"],
                                                       calls.get("kernels.design_lowpass", 0)),
        "kernels.tukey_window.ms": ms("kernels.tukey_window"),
        "kernels.peak_normalize.ms": ms("kernels.peak_normalize"),
        "modulator.modulate.self_ms": self_ms("modulator.modulate"),
        "demodulator.demodulate.self_ms": self_ms("demodulator.demodulate"),
        "demodulator.filter_passes_per_output": ratio(counts.get("demodulator.filter_passes", 0),
                                                      calls.get("demodulator.demodulate", 0)),
        "demodulator.recovered_bandwidth.ms": ms("demodulator.recovered_bandwidth"),
        "analysis.measure.ms": ms("analysis.measure"),
        "analysis.detect.ms": ms("analysis.detect"),
        "analysis.detect.frames": count("analysis.detect.frames"),
        "stego.find_silence.ms": ms("stego.find_silence"),
        "stego.embed.ms": ms("stego.embed"),
        "stego.embed_file.self_ms": self_ms("stego.embed_file"),
        "stego.resample_per_embed": ratio(counts.get("stego.embed_file.resamples", 0),
                                          calls.get("stego.embed_file", 0)),
    }
    for module in PUBLIC:
        total = sum(v for k, v in own.items() if k.split(".", 1)[0] == module)
        out[f"{module}.self_ms"] = (1000.0 * total, "ms", "time")
    return out
