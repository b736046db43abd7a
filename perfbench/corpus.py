"""Seeded synthetic WAV corpora and the operation list of each workload.

Everything here is numpy, ``scipy.fft`` and the stdlib ``wave`` module; none
of it imports ultraband, so the inputs do not change when the package under
test does. ``--seed`` draws the speech content, pause layout, payload
positions, carrier offsets and operation order. Sample counts come from a
fixed table per workload: they are arbitrary (not FFT-friendly) counts spread
over each workload's length range, identical for every seed, so that the
FFT-size sensitivity of the code is exercised the same way on every run and
seed-to-seed spread reflects the machine rather than transform-size luck.
"""

from __future__ import annotations

import csv
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import next_fast_len

CARRIER_HZ = 16000.0
BASEBAND_HZ = 6000.0
#: Fixed generator for the sample-count tables (not the workload seed).
_TABLE_SEED = 20230517
_CHUNK = 1 << 20


@dataclass
class Workload:
    """Operations of one pass, a warm-up operation and a corpus summary.

    ``pass_s`` is the wall time of one pass measured when the benchmark was
    defined, on the reference machine (2 vCPUs); it converts ``--seconds`` into
    a whole number of passes, so both sides of a comparison time the same
    operations.
    """

    name: str
    ops: list
    warmup: dict
    pass_s: float
    clips: int
    audio_s: float
    rates: tuple
    length_s: tuple


def write_wav(path, x: np.ndarray, rate: float) -> None:
    """Quantize floats in [-1, 1] to 16-bit PCM and write a mono WAV."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(rate))
        for lo in range(0, x.size, _CHUNK):
            pcm = np.clip(np.rint(x[lo : lo + _CHUNK] * 32767.0), -32768, 32767)
            fh.writeframes(pcm.astype("<i2").tobytes())


def read_wav(path):
    """Return (int16 samples of channel 0, rate) using the stdlib reader."""
    with wave.open(str(path), "rb") as fh:
        rate = fh.getframerate()
        channels = fh.getnchannels()
        raw = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return raw[::channels], rate


def _durations(count: int, lo_s: float, hi_s: float, salt: int) -> list:
    """One fixed, arbitrary duration per equal-width stratum of [lo_s, hi_s)."""
    u = np.random.default_rng([_TABLE_SEED, salt]).random(count)
    return [lo_s + (hi_s - lo_s) * (i + u[i]) / count for i in range(count)]


def _fade(x: np.ndarray, rate: float, ms: float = 5.0) -> np.ndarray:
    m = min(int(rate * ms / 1000.0), x.size // 2)
    if m > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
        x[:m] *= ramp
        x[x.size - m :] *= ramp[::-1]
    return x


def _utterance(m: int, rate: float, rng) -> np.ndarray:
    """Voiced harmonic stack under two formants, syllabic envelope, fricative noise."""
    f0 = rng.uniform(90.0, 220.0)
    size = next_fast_len(m, real=True)
    f = f0 * np.arange(1, int(7800.0 // f0) + 1)
    amp = (
        1.0 / (1.0 + ((f - 500.0) / 400.0) ** 2)
        + 0.7 / (1.0 + ((f - 1800.0) / 600.0) ** 2)
        + 0.15
    ) / (1.0 + f / 1500.0)
    spec = np.zeros(size // 2 + 1, dtype=complex)
    spec[np.rint(f * size / rate).astype(int)] = amp * np.exp(2j * np.pi * rng.random(f.size))
    voiced = np.fft.irfft(spec, size)[:m]
    t = np.arange(m) / rate
    syllable = 2.0 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0.0, 2.0 * np.pi)
    out = voiced * (0.15 + 0.425 * (1.0 - np.cos(syllable))) / np.max(np.abs(voiced))
    out += 0.15 * np.max(np.abs(out)) * rng.standard_normal(m)
    return _fade(out, rate)


def speech(n: int, rate: float, rng, peak: float, pause_s=None) -> np.ndarray:
    """``n`` samples of 1-3 s utterances; ``pause_s=(lo, hi)`` adds silent gaps."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        m = min(n - pos, max(16, int(rng.uniform(1.0, 3.0) * rate)))
        out[pos : pos + m] = _utterance(m, rate, rng)
        pos += m
        if pause_s is not None:
            pos += int(rng.uniform(*pause_s) * rate)
    out *= peak / np.max(np.abs(out))
    return out


def ssb(x: np.ndarray, rate: float) -> np.ndarray:
    """Upper-sideband shift of ``x`` into [16, 22] kHz, peak 1 (ideal FFT filters)."""
    size = next_fast_len(x.size)
    spec = np.fft.fft(x, size)
    freqs = np.fft.fftfreq(size, d=1.0 / rate)
    spec[(freqs <= 0.0) | (freqs > BASEBAND_HZ)] = 0.0
    analytic = 2.0 * np.fft.ifft(spec)[: x.size]
    carrier = np.exp(2j * np.pi * CARRIER_HZ * np.arange(x.size) / rate)
    y = _fade(np.real(analytic * carrier), rate, ms=10.0)
    return y / np.max(np.abs(y))


def _op(kind: str, argv: list, audio_s: float, outputs=(), **check) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "audio_s": audio_s,
            "outputs": [str(p) for p in outputs], **check}


def covert_roundtrip(work: Path, rng) -> Workload:
    rate = 48000.0
    ops = []
    lengths = [int(d * rate) for d in _durations(4, 5.0, 20.0, salt=1)]
    for i in rng.permutation(len(lengths)):
        n = lengths[i]
        src, cov, back = (work / f"{stem}{i}.wav" for stem in ("src", "cov", "back"))
        write_wav(src, speech(n, rate, rng, peak=0.8), rate)
        ops.append(_op("modulate", ["modulate", src, cov], n / rate, [cov]))
        ops.append(_op("demodulate", ["demodulate", cov, back], n / rate, [back], source=str(src)))
    warm = work / "warm.wav"
    write_wav(warm, speech(int(rate), rate, rng, peak=0.8), rate)
    warmup = _op("modulate", ["modulate", warm, work / "warm_out.wav"], 1.0)
    return Workload("covert_roundtrip", ops, warmup, 2.0, len(lengths), sum(lengths) / rate,
                    (int(rate),), (min(lengths) / rate, max(lengths) / rate))


def _covert_clip(n: int, rate: float, rng) -> np.ndarray:
    """A covert recording: SSB speech cropped at a random leading offset."""
    offset = int(rng.integers(0, int(rate)))
    y = ssb(speech(n + offset, rate, rng, peak=0.8), rate)
    return 0.9 * y[offset:]


def phase_recover(work: Path, rng) -> Workload:
    rate = 48000.0
    n = int(10 * rate)
    ops = []
    for i in range(3):
        cov, rec = work / f"cov{i}.wav", work / f"rec{i}.wav"
        write_wav(cov, _covert_clip(n, rate, rng), rate)
        ops.append(_op("phase_search", ["demodulate", "--phase-search", cov, rec], n / rate, [rec]))
    warm = work / "warm.wav"
    write_wav(warm, _covert_clip(int(rate), rate, rng), rate)
    warmup = _op("phase_search", ["demodulate", "--phase-search", warm, work / "warm_out.wav"], 1.0)
    return Workload("phase_recover", ops, warmup, 2.0, len(ops), len(ops) * n / rate,
                    (int(rate),), (10.0, 10.0))


def _recording(n: int, rate: float, rng, covert: bool) -> np.ndarray:
    """Speech with pauses; a covert one carries 1-2 s SSB payloads in 2-3 pauses."""
    x = speech(n, rate, rng, peak=0.7, pause_s=(0.3, 1.5))
    if covert:
        for _ in range(int(rng.integers(2, 4))):
            m = int(rng.uniform(1.0, 2.0) * rate)
            start = int(rng.integers(0, n - m - int(0.4 * rate)))
            span = slice(start, start + m + int(0.4 * rate))
            x[span] = 0.0
            pad = int(0.2 * rate)
            x[start + pad : start + pad + m] = 0.5 * ssb(speech(m, rate, rng, peak=0.8), rate)
    return x


def scan_archive(work: Path, rng) -> Workload:
    rates = (44100.0, 48000.0)
    count = 5  # odd, so the median operation time falls inside one recording's samples
    durations = _durations(count, 120.0, 600.0, salt=3)
    covert = set(rng.choice(count, size=count // 2, replace=False).tolist())
    ops = []
    audio = 0.0
    for i in rng.permutation(count):
        rate = rates[i % 2]
        n = int(durations[i] * rate)
        path = work / f"rec{i}.wav"
        write_wav(path, _recording(n, rate, rng, i in covert), rate)
        audio += n / rate
        ops.append(_op("detect", ["detect", path], n / rate, label=2 if i in covert else 0))
    warm = work / "warm.wav"
    write_wav(warm, _recording(int(20 * 48000), 48000.0, rng, covert=True), 48000.0)
    warmup = _op("detect", ["detect", warm], 20.0, label=2)
    return Workload("scan_archive", ops, warmup, 2.5, count, audio, (44100, 48000),
                    (min(durations), max(durations)))


_BATCH_RATES = (16000.0, 22050.0, 44100.0, 48000.0)
#: Per-row overrides; an empty cell inherits the default.
_BATCH_OVERRIDES = (("127", ""), ("", "0.02"), ("383", "0.1"), ("255", "0.05"))


def _host(n: int, rate: float, rng, hole: int) -> np.ndarray:
    """Host speech at peak 0.45 with one silent region of ``hole`` samples.

    |sample| <= 16384 keeps the documented 16-bit float round trip exact, so
    samples outside the insertion span must come back unchanged.
    """
    lead = int(rng.uniform(0.4, 0.8) * rate)
    x = speech(n, rate, rng, peak=0.45)
    x[lead : lead + hole] = 0.0
    return x


def batch_embed(work: Path, rng) -> Workload:
    ops = []
    lengths_s = []
    clip_s = _durations(12, 1.0, 4.0, salt=4)
    for b in range(3):
        manifest, report = work / f"manifest{b}.csv", work / f"report{b}.csv"
        rows, outputs, audio = [], [], 0.0
        for slot in range(4):
            i = 3 * slot + b  # fixed, so each manifest's sample count is seed-independent
            rate = _BATCH_RATES[slot]
            n = int(clip_s[i] * rate)
            src, out = work / f"b{b}_{slot}.wav", work / f"b{b}_{slot}_out.wav"
            write_wav(src, speech(n, rate, rng, peak=0.8), rate)
            taps, alpha = _BATCH_OVERRIDES[slot]
            rows.append({"input": src, "output": out, "filter_taps": taps, "tukey_alpha": alpha})
            outputs.append(out)
            audio += n / rate
            lengths_s.append(n / rate)
        with open(manifest, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        ops.append(_op("batch", ["batch", manifest, "--report", report], audio,
                       [report, *outputs], rows=len(rows)))

    host_rate = 48000.0
    payload_s = _durations(8, 0.3, 0.6, salt=5)
    host_s = _durations(8, 2.0, 4.0, salt=6)
    for j in range(8):
        pay_rate = (44100.0, 48000.0)[j % 2]
        pay_n = int(payload_s[j] * pay_rate)
        host_n = int(host_s[7 - j] * host_rate)
        hole = int(pay_n * host_rate / pay_rate) + int(0.3 * host_rate)
        host, pay, out = work / f"host{j}.wav", work / f"pay{j}.wav", work / f"stego{j}.wav"
        write_wav(host, _host(host_n, host_rate, rng, hole), host_rate)
        write_wav(pay, 0.9 * ssb(speech(pay_n, pay_rate, rng, peak=0.8), pay_rate), pay_rate)
        lengths_s += [host_n / host_rate, pay_n / pay_rate]
        ops.append(_op("embed", ["embed", host, pay, out], host_n / host_rate + pay_n / pay_rate,
                       [out], host=str(host)))
    ops = [ops[i] for i in rng.permutation(len(ops))]

    warm_src, warm_manifest = work / "warm.wav", work / "warm.csv"
    write_wav(warm_src, speech(22050, 22050.0, rng, peak=0.8), 22050.0)
    with open(warm_manifest, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"input,output\n{warm_src},{work / 'warm_out.wav'}\n")
    warmup = _op("batch", ["batch", warm_manifest, "--report", work / "warm_report.csv"], 1.0)
    return Workload("batch_embed", ops, warmup, 0.8, 12 + 16, sum(lengths_s),
                    (16000, 22050, 44100, 48000), (min(lengths_s), max(lengths_s)))


WORKLOADS = {
    "covert_roundtrip": covert_roundtrip,
    "phase_recover": phase_recover,
    "scan_archive": scan_archive,
    "batch_embed": batch_embed,
}


def build(name: str, work: Path, seed: int) -> Workload:
    """Write the corpus of ``name`` for ``seed`` under ``work``; return its ops."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](work, rng)
