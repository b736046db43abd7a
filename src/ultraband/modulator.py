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

from dataclasses import dataclass, fields

import numpy as np

from . import analysis
from .errors import ConfigInvalid, EmptySignal, IoFailure
from .kernels import (
    WindowSpec,
    apply_filter,
    design_lowpass,
    hilbert,
    peak_normalize,
    resample,
    tukey_window,
)
from .wavio import SampleBuffer, read_wav, to_float, to_pcm, write_wav


@dataclass(frozen=True)
class ModulationConfig:
    """Knobs for the up-conversion pipeline.

    carrier_hz and cutoff_hz define the output band [carrier, carrier+cutoff];
    the pair must fit under the working Nyquist frequency.
    """

    carrier_hz: float = 16000.0
    cutoff_hz: float = 6000.0
    tukey_alpha: float = 0.05
    filter_taps: int = 255
    normalize_target: float = 1.0
    working_rate_hz: float = 48000.0

    def validate(self) -> None:
        if not self.working_rate_hz > 0:
            raise ConfigInvalid(f"working_rate_hz {self.working_rate_hz} must be positive")
        if not self.carrier_hz > 0:
            raise ConfigInvalid(f"carrier_hz {self.carrier_hz} must be positive")
        if not self.cutoff_hz > 0:
            raise ConfigInvalid(f"cutoff_hz {self.cutoff_hz} must be positive")
        if self.carrier_hz + self.cutoff_hz > self.working_rate_hz / 2:
            raise ConfigInvalid(
                f"band [{self.carrier_hz}, {self.carrier_hz + self.cutoff_hz}] Hz does not fit "
                f"under Nyquist ({self.working_rate_hz / 2} Hz)"
            )
        if not 0.0 <= self.tukey_alpha <= 1.0:
            raise ConfigInvalid(f"tukey_alpha {self.tukey_alpha} outside [0, 1]")
        taps = self.filter_taps
        if int(taps) != taps or taps < 3 or int(taps) % 2 == 0:
            raise ConfigInvalid(f"filter_taps {taps} must be an odd integer >= 3")
        if not 0.0 < self.normalize_target <= 1.0:
            raise ConfigInvalid(f"normalize_target {self.normalize_target} outside (0, 1]")


def load_config(path) -> ModulationConfig:
    """Read a plain-text ``key = value`` config file into a ModulationConfig.

    Blank lines and ``#`` comments are ignored. Keys must match config field
    names; values are numeric.
    """
    known = {f.name: f.type for f in fields(ModulationConfig)}
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
        if key not in known:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = int(value) if key == "filter_taps" else float(value)
        except ValueError as exc:
            raise ConfigInvalid(f"{path}:{lineno}: bad number {value.strip()!r}") from exc
    cfg = ModulationConfig(**overrides)
    cfg.validate()
    return cfg


def modulate(signal: SampleBuffer, config: ModulationConfig = ModulationConfig()) -> SampleBuffer:
    """Shift a baseband signal up into the near-ultrasound band.

    Steps: resample to the working rate, low-pass at the cutoff, peak
    normalize, mix with the carrier using the Hilbert transform to cancel
    the lower sideband, apply the Tukey taper, then normalize to the target.
    Output is at ``config.working_rate_hz``. Deterministic: equal input and
    config give bit-identical output.
    """
    config.validate()
    if len(signal) == 0:
        raise EmptySignal("cannot modulate an empty signal")

    work = resample(signal, config.working_rate_hz)
    lpf = design_lowpass(config.cutoff_hz, config.working_rate_hz, config.filter_taps)
    base = peak_normalize(apply_filter(lpf, work), 1.0)
    quad = hilbert(base)

    n = np.arange(len(base))
    phase = 2.0 * np.pi * config.carrier_hz * n / config.working_rate_hz
    mixed = base.samples * np.cos(phase) - quad.samples * np.sin(phase)

    if len(base) >= 2:
        taper = tukey_window(WindowSpec(kind="tukey", alpha=config.tukey_alpha, length=len(base)))
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
