"""Single upper-sideband modulation of speech-band audio into 16-22 kHz.

The pipeline band-limits the input, takes its Hilbert transform, and mixes
both against a carrier so that the spectrum is shifted up without a mirror
image below the carrier:

    y[n] = x[n] * cos(2*pi*fc*n/rate) - xh[n] * sin(2*pi*fc*n/rate)

A short Tukey taper removes the on/off clicks, and the result is peak
normalized. With the default carrier of 16 kHz and 6 kHz cutoff the output
occupies 16-22 kHz, above typical adult hearing but inside what commodity
microphones still capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import analysis
from .errors import ConfigInvalid, EmptySignal, IoFailure
from .kernels import (
    BAND_HZ,
    CARRIER_HZ,
    FIR_TAPS,
    apply_filter,
    check_band,
    check_taps,
    design_lowpass,
    hilbert,
    next_fast_len,
    peak_normalize,
    resample,
    tukey_window,
)
from .wavio import SampleBuffer, read_wav, to_float, to_pcm, write_wav


@dataclass(frozen=True)
class ModulationConfig:
    """Knobs for the up-conversion pipeline.

    carrier_hz and cutoff_hz define the output band [carrier, carrier+cutoff];
    the pair must fit under the working Nyquist frequency. Construction checks
    every field (ConfigInvalid). The field names are the config-file keys and
    the batch manifest columns; ``cli.py`` declares one flag per field.
    """

    carrier_hz: float = CARRIER_HZ
    cutoff_hz: float = BAND_HZ
    tukey_alpha: float = 0.05
    filter_taps: int = FIR_TAPS
    normalize_target: float = 1.0
    working_rate_hz: float = 48000.0

    def __post_init__(self):
        if not 0 < self.working_rate_hz < math.inf:
            raise ConfigInvalid(
                f"working_rate_hz {self.working_rate_hz} must be positive and finite"
            )
        check_band(
            self.carrier_hz, self.cutoff_hz, self.working_rate_hz, ConfigInvalid, "cutoff_hz"
        )
        if not 0.0 <= self.tukey_alpha <= 1.0:
            raise ConfigInvalid(f"tukey_alpha {self.tukey_alpha} outside [0, 1]")
        check_taps(self.filter_taps, ConfigInvalid, "filter_taps")
        if not 0.0 < self.normalize_target <= 1.0:
            raise ConfigInvalid(f"normalize_target {self.normalize_target} outside (0, 1]")


def parse_field(key: str, text: str):
    """Convert ``text`` to the type of the ModulationConfig field ``key``.

    Shared by config files and batch manifests; raises ConfigInvalid for an
    unknown key or a value that does not parse.
    """
    types = {f.name: type(f.default) for f in fields(ModulationConfig)}
    if key not in types:
        raise ConfigInvalid(f"unknown key {key!r}")
    try:
        return types[key](text)
    except ValueError as exc:
        raise ConfigInvalid(f"{key}: bad number {text.strip()!r}") from exc


def load_config(path) -> ModulationConfig:
    """Read a plain-text ``key = value`` config file into a ModulationConfig.

    Blank lines and ``#`` comments are ignored. Keys must match config field
    names; values are numeric.
    """
    overrides: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key = key.strip()
        try:
            overrides[key] = parse_field(key, value)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{path}:{lineno}: {exc}") from exc
    return ModulationConfig(**overrides)


def modulate(signal: SampleBuffer, config: ModulationConfig = ModulationConfig()) -> SampleBuffer:
    """Shift a baseband signal up into the near-ultrasound band.

    Steps: resample to the working rate, low-pass at the cutoff, peak
    normalize, mix with the carrier using the Hilbert transform to cancel
    the lower sideband, apply the Tukey taper, then normalize to the target.
    Output is at ``config.working_rate_hz``. Deterministic: equal input and
    config give bit-identical output.

    The Hilbert transform runs on the band-limited signal zero-padded to
    ``kernels.next_fast_len(n)``, the smallest 5-smooth length (at most a
    few percent longer), and its first ``n`` samples are kept. At a length
    that is already fast this is the circular transform of the signal
    itself. Elsewhere the
    output differs from the circular one near the two ends, mostly inside
    the default taper. Before PCM, it differs by at most 2e-3 for speech of
    1 s or more and by at most 2e-2 for a tone of 75 cycles or more; on
    such clips, the measured leakage moves by at most 1e-9 of the total
    energy and the suppression by at most 0.1 dB (tests/test_modulator.py).
    With ``tukey_alpha = 0``, an abruptly cut tone's edge samples can move
    by up to ~0.4.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot modulate an empty signal")

    work = resample(signal, config.working_rate_hz)
    lpf = design_lowpass(config.cutoff_hz, config.working_rate_hz, config.filter_taps)
    base = peak_normalize(apply_filter(lpf, work), 1.0)
    n = len(base)
    padded = np.pad(base.samples, (0, next_fast_len(n) - n))
    quad = hilbert(SampleBuffer(padded, config.working_rate_hz)).samples[:n]

    phase = 2.0 * np.pi * config.carrier_hz * np.arange(n) / config.working_rate_hz
    mixed = base.samples * np.cos(phase) - quad * np.sin(phase)

    if n >= 2:
        taper = tukey_window(n, config.tukey_alpha)
        mixed = mixed * taper
    shifted = SampleBuffer(mixed, config.working_rate_hz)
    return peak_normalize(shifted, config.normalize_target)


def modulate_file(
    in_path, out_path, config: ModulationConfig = ModulationConfig()
) -> "analysis.BandMetrics":
    """Modulate channel 0 of a WAV file and write the high-band result.

    The returned metrics describe the 16-bit samples written to disk, not
    the float intermediate; write/read is byte-exact, so they are measured
    on the quantized clip in memory.
    """
    clip = read_wav(in_path)
    shifted = modulate(to_float(clip, channel=0), config)
    pcm = to_pcm(shifted)
    write_wav(out_path, pcm)
    return analysis.measure(to_float(pcm, channel=0), config)
