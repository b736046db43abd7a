"""Single upper-sideband modulation of speech-band audio into 16-22 kHz.

One complex FIR, the phasing method's analytic band-pass (R. G. Lyons,
*Understanding Digital Signal Processing*, 3rd ed., 2011, ch. 9), keeps the
input's band [GUARD_HZ, cutoff], xb, and its Hilbert transform xh, which are
mixed against a carrier so that the spectrum is shifted up without a mirror
image below the carrier:

    y[n] = xb[n] * cos(2*pi*fc*n/rate) - xh[n] * sin(2*pi*fc*n/rate)

A short Tukey taper removes the on/off clicks, and the result is peak
normalized. The filter and the mix run a block at a time in
``kernels._overlap_add``, on the block loop ``kernels._framed``, so xb and
xh never exist whole. With the default
carrier of 16 kHz and 6 kHz cutoff the output occupies 16-22 kHz, above
typical adult hearing but inside what commodity microphones still capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import analysis
from .errors import ConfigInvalid, EmptySignal, check_fraction, check_positive, opened
from .kernels import (BAND_HZ, CARRIER_HZ, FIR_TAPS, _carrier, _factors, _normalize, _overlap_add,
                      _taper, check_band, check_taps, resample)
from .wavio import PcmClip, SampleBuffer, WavFile, open_wav, to_pcm, write_wav

#: Lower edge of the single-sideband passband. Baseband content below it
#: would land just under the carrier, so the filter drops it.
GUARD_HZ = 100.0


@dataclass(frozen=True)
class ModulationConfig:
    """Knobs for the up-conversion pipeline.

    carrier_hz and cutoff_hz define the output band [carrier, carrier+cutoff];
    the pair must fit under the working Nyquist frequency. ``filter_taps`` is
    a floor on the single-sideband filter's length (1023 taps at 48 kHz,
    2047 at 96 kHz). Construction checks every field (ConfigInvalid). The
    field names are the config-file keys and the batch manifest columns;
    ``cli.py`` declares one flag per field.
    """

    carrier_hz: float = CARRIER_HZ
    cutoff_hz: float = BAND_HZ
    tukey_alpha: float = 0.05
    filter_taps: int = FIR_TAPS
    normalize_target: float = 1.0
    working_rate_hz: float = 48000.0

    def __post_init__(self):
        check_positive(self.working_rate_hz, ConfigInvalid, "working_rate_hz")
        check_band(self.carrier_hz, self.cutoff_hz, self.working_rate_hz, ConfigInvalid, "cutoff_hz")
        check_fraction(self.tukey_alpha, ConfigInvalid, "tukey_alpha", zero_ok=True)
        check_taps(self.filter_taps, ConfigInvalid, "filter_taps")
        check_fraction(self.normalize_target, ConfigInvalid, "normalize_target")


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
    return ModulationConfig(**read_config(path))


def read_config(path) -> dict:
    """The fields a ``load_config`` file sets, each one parsed but not yet validated."""
    overrides: dict = {}
    with opened(path, "r", "config ", encoding="utf-8") as fh:
        lines = fh.readlines()
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
    return overrides


def _ssb_taps(config: ModulationConfig) -> np.ndarray:
    """Rows 2p * cos and 2p * sin of the analytic band-pass [GUARD_HZ, cutoff]:
    p a Kaiser (beta = 8) windowed sinc low-pass of half the band's width,
    unit sum, moved by e^(j*2*pi*fm*k/rate) to the band's centre fm. The
    length, at least ``filter_taps``, scales with the rate so that the
    transition bands keep their width in Hz: 1023 taps at 48 kHz."""
    rate = config.working_rate_hz
    n_taps = max(config.filter_taps, 2 * math.ceil(512 * rate / 48000.0) - 1)
    k = np.arange(n_taps) - (n_taps - 1) // 2
    p = np.sinc((config.cutoff_hz - GUARD_HZ) / rate * k) * np.kaiser(n_taps, 8.0)
    p *= 2.0 / p.sum()
    phase = np.pi * (GUARD_HZ + config.cutoff_hz) / rate * k
    return np.stack([p * np.cos(phase), p * np.sin(phase)])


def modulate(signal: SampleBuffer | PcmClip | WavFile,
             config: ModulationConfig = ModulationConfig()) -> SampleBuffer:
    """Shift a baseband signal up into the near-ultrasound band.

    Steps: resample to the working rate, take the band [GUARD_HZ, cutoff]
    and its Hilbert transform with one analytic band-pass FIR (two tap rows,
    so ``kernels._overlap_add`` runs it, not ``apply_filter``), mix both with
    the carrier so that
    the lower sideband cancels, apply the Tukey taper, then normalize to the
    target. Every step before the last is linear, so that one normalization
    sets the output level. Output is at ``config.working_rate_hz``.
    Deterministic: equal input and config give bit-identical output.
    ConfigInvalid unless the cutoff lies above ``GUARD_HZ``.

    A ``PcmClip``'s or an open ``WavFile``'s channel 0 is read through
    ``_read``, to the bit as ``to_float`` reads it: a span at a time, or whole
    to be resampled. The mix
    runs in the filter's block loop; taper and normalization work in place.
    The carrier's cos and sin are read from tables of one or more whole
    periods (3 samples for 16 kHz at 48 kHz), with the phase reduced before
    it is scaled, so a carrier that repeats within the signal is exact to
    rounding at any length.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot modulate an empty signal")
    if not config.cutoff_hz > GUARD_HZ:
        raise ConfigInvalid(f"cutoff_hz {config.cutoff_hz} must lie above {GUARD_HZ} Hz")

    rate = config.working_rate_hz
    if _factors(signal.sample_rate_hz, rate) != (1, 1):  # from a float copy, freed after
        signal = resample(signal, rate)
    cos, sin = _carrier(config.carrier_hz, rate, len(signal))
    (out,) = _overlap_add(signal, _ssb_taps(config), mix_out=((cos, -sin),))
    if out.size >= 2:
        _taper(out, config.tukey_alpha)
    _normalize(out, config.normalize_target, out)
    return SampleBuffer._adopt(out, rate)


def modulate_file(
    in_path, out_path, config: ModulationConfig = ModulationConfig()
) -> "analysis.BandMetrics":
    """Modulate channel 0 of a WAV file and write the high-band result.

    The metrics describe the 16-bit clip written to disk (write/read is
    byte-exact): ``measure`` reads the ``PcmClip`` in spans, with no float copy.
    The input (``open_wav``) is closed before the output is opened.
    """
    with open_wav(in_path) as signal:
        pcm = to_pcm(modulate(signal, config))
    write_wav(out_path, pcm)
    return analysis.measure(pcm, config)
