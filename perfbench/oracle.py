"""Output checks for every benchmark operation, independent of ultraband.

WAVs are read with the stdlib ``wave`` module and every reference value is
recomputed here with numpy/scipy. Bounds are the acceptance criteria of the
package: C1 (occupancy within 15.8-22.2 kHz, leakage <= -40 dB), C3 (round
trip NCC >= 0.95 against the low-passed source) and C7 (embed leaves every
host sample outside the insertion span unchanged).
"""

from __future__ import annotations

import csv
import json
import wave

import numpy as np
from scipy.signal import oaconvolve

from corpus import BASEBAND_HZ, CARRIER_HZ, read_wav

OCCUPANCY_HZ = (15800.0, 22200.0)
MAX_LEAKAGE_DB = -40.0
MIN_NCC = 0.95
#: Phase candidates whose output energy is within this share of the largest
#: count as ties: the program may return any of them.
PHASE_TIE_REL = 1e-6
PHASE_CANDIDATES = 16
_TAPS = 255
_TAPER_ALPHA = 0.05


def lowpass(x: np.ndarray, rate: float, cutoff: float = BASEBAND_HZ) -> np.ndarray:
    """Reference 255-tap Hamming windowed-sinc low-pass, delay compensated."""
    half = _TAPS // 2
    fn = cutoff / rate
    h = 2.0 * fn * np.sinc(2.0 * fn * np.arange(-half, half + 1)) * np.hamming(_TAPS)
    return oaconvolve(x, h / h.sum())[half : half + x.size]


def ncc(a: np.ndarray, b: np.ndarray, trim: float = 0.05) -> float:
    """Zero-lag normalized cross-correlation over the central region."""
    n = min(a.size, b.size)
    lo, hi = int(n * trim), int(n * (1.0 - trim))
    x = a[lo:hi] - a[lo:hi].mean()
    y = b[lo:hi] - b[lo:hi].mean()
    denom = float(np.sqrt(np.dot(x, x) * np.dot(y, y)))
    return float(np.dot(x, y) / denom) if denom > 0.0 else 0.0


def band_stats(x: np.ndarray, rate: float):
    """(occupancy_lo, occupancy_hi, leakage_db) over the taper-free core."""
    edge = int(round(x.size * _TAPER_ALPHA / 2.0))
    core = x[edge : x.size - edge]
    power = np.abs(np.fft.rfft(core)) ** 2
    power[1 : (core.size + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(core.size, d=1.0 / rate)
    total = power.sum()
    cum = np.cumsum(power)
    lo, hi = (freqs[min(int(np.searchsorted(cum, q * total)), freqs.size - 1)]
              for q in (0.05, 0.95))
    leakage = 10.0 * np.log10((power[freqs < CARRIER_HZ - 500.0].sum() + 1e-30) / (total + 1e-30))
    return float(lo), float(hi), float(leakage)


def _quantize(x: np.ndarray) -> np.ndarray:
    scaled = x * 32767.0
    return np.clip(np.copysign(np.floor(np.abs(scaled) + 0.5), scaled), -32768, 32767)


def _floats(path) -> tuple:
    pcm, rate = read_wav(path)
    return pcm / 32768.0, rate


def _check_modulate(op, stdout):
    out = json.loads(stdout)
    x, rate = _floats(op["outputs"][0])
    lo, hi, leakage = band_stats(x, rate)
    for name, (lo_, hi_, leak_) in (("oracle", (lo, hi, leakage)), ("reported", (
            out["occupancy_lo_hz"], out["occupancy_hi_hz"], out["leakage_below_carrier_db"]))):
        if not (OCCUPANCY_HZ[0] <= lo_ and hi_ <= OCCUPANCY_HZ[1]):
            return f"{name} occupancy {lo_:.0f}-{hi_:.0f} Hz outside C1 band"
        if leak_ > MAX_LEAKAGE_DB:
            return f"{name} leakage {leak_:.1f} dB above {MAX_LEAKAGE_DB} dB"
    return None


def _check_demodulate(op, stdout):
    back, rate = _floats(op["outputs"][0])
    src, _ = _floats(op["source"])
    score = ncc(back, lowpass(src, rate))
    return None if score >= MIN_NCC else f"round-trip NCC {score:.4f} < {MIN_NCC}"


def _check_phase_search(op, stdout):
    x, rate = _floats(op["argv"][-2])
    got, _ = read_wav(op["outputs"][0])
    base = 2.0 * np.pi * CARRIER_HZ * np.arange(x.size) / rate
    candidates = [
        lowpass(2.0 * x * np.cos(base + 2.0 * np.pi * k / PHASE_CANDIDATES), rate)
        for k in range(PHASE_CANDIDATES)
    ]
    energies = np.array([np.dot(c, c) for c in candidates])
    ties = np.flatnonzero(energies >= (1.0 - PHASE_TIE_REL) * energies.max())
    for k in ties:
        c = candidates[k]
        expected = _quantize(c / np.max(np.abs(c)))
        if expected.size == got.size and np.max(np.abs(expected - got)) <= 1:
            return None
    return f"output matches none of the top-energy phase candidates {ties.tolist()}"


def _check_detect(op, stdout):
    flagged = json.loads(stdout)["flagged"]
    return None if flagged == (op["label"] == 2) else f"flagged={flagged}, label {op['label']}"


def _check_batch(op, stdout):
    summary = json.loads(stdout)
    if summary["files"] != op["rows"] or summary["failed"] != 0:
        return f"batch summary {summary}"
    with open(op["outputs"][0], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    errors = [r["error"] for r in rows if r["error"]]
    if len(rows) != op["rows"] or errors:
        return f"report has {len(rows)} rows, errors {errors}"
    return None


def _check_embed(op, stdout):
    report = json.loads(stdout)
    host, host_rate = read_wav(op["host"])
    out, out_rate = read_wav(op["outputs"][0])
    start, end = report["insertion"]["start_sample"], report["insertion"]["end_sample"]
    if out_rate != host_rate or out.size != host.size or not 0 <= start < end <= host.size:
        return (f"stego output {out.size}@{out_rate} vs host {host.size}@{host_rate}, "
                f"span {start}-{end}")
    outside = np.concatenate([out[:start] != host[:start], out[end:] != host[end:]])
    if outside.any():
        return f"{int(outside.sum())} host samples changed outside the insertion span"
    if np.array_equal(out[start:end], host[start:end]):
        return "payload missing from the insertion span"
    return None


_CHECKS = {
    "modulate": _check_modulate,
    "demodulate": _check_demodulate,
    "phase_search": _check_phase_search,
    "detect": _check_detect,
    "batch": _check_batch,
    "embed": _check_embed,
}


def check(ops: list, records: list, final_hashes: list) -> list:
    """Return one failure reason (or None) per record.

    Outputs are deterministic, so every record of an operation must carry the
    exit code, stdout and output hashes of the files left on disk; those files
    and that stdout get the full check once per operation.
    """
    verdicts = {}
    first = {}
    for rec in records:
        first.setdefault(rec["op"], rec)
    for i, rec in first.items():
        op = ops[i]
        expected_rc = op["label"] if op["kind"] == "detect" else 0
        if rec["rc"] != expected_rc:
            verdicts[i] = f"exit code {rec['rc']} (expected {expected_rc}): {rec['stderr'][-300:]}"
        elif rec["hashes"] != final_hashes[i]:
            verdicts[i] = "outputs on disk differ from the first run of this operation"
        else:
            try:
                verdicts[i] = _CHECKS[op["kind"]](op, rec["stdout"])
            except (OSError, ValueError, KeyError, EOFError, wave.Error) as exc:
                verdicts[i] = f"output unreadable: {exc!r}"
    def outcome(rec):
        return rec["rc"], rec["stdout"], rec["hashes"]

    reasons = []
    for rec in records:
        if verdicts[rec["op"]]:
            reasons.append(verdicts[rec["op"]])
        elif outcome(rec) != outcome(first[rec["op"]]):
            reasons.append("a repeat gave another exit code, stdout or output bytes")
        else:
            reasons.append(None)
    return reasons
