"""Coherent recovery of speech from the near-ultrasound band.

Demodulation is the product detector: multiply by twice the carrier, then
low-pass. The factor of two puts a unit-amplitude component back at unit
amplitude. For digital loopback the carrier phase is already aligned; for
external recordings an exhaustive 16-candidate phase search is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _occupancy, _weighted_power
from .errors import ConfigInvalid, EmptySignal
from .kernels import (BAND_HZ, CARRIER_HZ, FIR_TAPS, apply_filter, check_band, check_taps,
                      design_lowpass, next_fast_len, peak_normalize)
from .wavio import SampleBuffer, read_wav, to_float, to_pcm, write_wav

#: Candidate carrier phases tried when ``phase_search`` is requested.
PHASE_CANDIDATES = 16

#: Recovered peaks below this fraction of the input peak are treated as
#: "nothing there": the residue is returned unscaled instead of being
#: amplified to full scale.
_RECOVERY_FLOOR = 0.01


@dataclass(frozen=True)
class DemodulationConfig:
    """Carrier and recovery filter settings; defaults mirror the modulator.

    Construction checks the rules that need no sample rate (ConfigInvalid):
    a positive carrier and cutoff and odd taps >= 3. ``validate(rate)``
    checks that the band fits under that rate's Nyquist frequency.
    """

    carrier_hz: float = CARRIER_HZ
    recovery_cutoff_hz: float = BAND_HZ
    filter_taps: int = FIR_TAPS

    def __post_init__(self):
        # An infinite rate leaves only check_band's positive-edge rules.
        self.validate(math.inf)
        check_taps(self.filter_taps, ConfigInvalid, "filter_taps")

    def validate(self, rate_hz: float) -> None:
        check_band(
            self.carrier_hz, self.recovery_cutoff_hz, rate_hz, ConfigInvalid, "recovery_cutoff_hz"
        )


def demodulate(
    signal: SampleBuffer,
    config: DemodulationConfig = DemodulationConfig(),
    phase_search: bool = False,
) -> SampleBuffer:
    """Recover baseband audio from a high-band signal.

    With ``phase_search`` the detector scores 16 evenly spaced carrier
    phases and keeps the one with the most output energy; useful when the
    input is a recording whose first sample does not line up with the
    transmitter's carrier. The search costs two filter passes (in-phase and
    quadrature) whatever the candidate count. Opposite phases tie in energy;
    the one in [0, pi) is returned, so the output polarity is deterministic.
    Output is peak normalized unless the recovered level is negligible
    next to the input (then the residue is returned as-is, so silence stays
    silent and out-of-band input stays tiny).
    """
    if len(signal) == 0:
        raise EmptySignal("cannot demodulate an empty signal")
    config.validate(signal.sample_rate_hz)

    lpf = design_lowpass(config.recovery_cutoff_hz, signal.sample_rate_hz, config.filter_taps)
    rate = signal.sample_rate_hz
    theta = 2.0 * np.pi * config.carrier_hz * np.arange(len(signal)) / rate

    def mix_down(carrier: np.ndarray) -> SampleBuffer:
        return apply_filter(lpf, SampleBuffer(2.0 * signal.samples * carrier, rate))

    recovered = mix_down(np.cos(theta))
    if phase_search:
        # Filtering 2x*cos(theta + phi) equals cos(phi)*I - sin(phi)*Q by
        # linearity, so the candidate energies follow from II, QQ and IQ.
        # Candidates k and k + 8 are negations with equal energy: score
        # k < 8 only and let argmax keep the lowest index on ties.
        i_arm = recovered.samples
        q_arm = mix_down(np.sin(theta)).samples
        phis = 2.0 * np.pi * np.arange(PHASE_CANDIDATES // 2) / PHASE_CANDIDATES
        c, s = np.cos(phis), np.sin(phis)
        ii, qq, iq = np.dot(i_arm, i_arm), np.dot(q_arm, q_arm), np.dot(i_arm, q_arm)
        k = int(np.argmax(c * c * ii + s * s * qq - 2.0 * s * c * iq))
        recovered = SampleBuffer(c[k] * i_arm - s[k] * q_arm, rate)

    in_peak = float(np.max(np.abs(signal.samples)))
    # Judge the recovered level away from the filter's zero-padding
    # warm-up: the leading/trailing group-delay spans hold onset
    # transients that would trip the gate when there is nothing to
    # recover.
    d = lpf.group_delay
    core = recovered.samples[d:-d] if len(recovered) > 2 * d else recovered.samples
    out_peak = float(np.max(np.abs(core))) if core.size else 0.0
    if out_peak > _RECOVERY_FLOOR * in_peak and out_peak > 0.0:
        return peak_normalize(recovered, 1.0)
    return recovered


def recovered_bandwidth(signal: SampleBuffer) -> float:
    """Smallest frequency below which 95% of the signal's energy lies.

    Useful as a one-number judgment of how much of the original band
    survived a modulate/transmit/demodulate trip. The spectrum is taken
    with the signal zero-padded to the smallest 5-smooth length
    ``kernels.next_fast_len(n)``, so the answer sits on that finer grid of
    bins. On noise, speech and tone pairs it is within 8 bins of
    ``rate / n`` of the unpadded spectrum's answer
    (tests/test_demodulator.py), and at a length that is already fast the
    two are equal.
    """
    if len(signal) == 0:
        raise EmptySignal("no bandwidth for an empty signal")
    n_fft = next_fast_len(len(signal))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / signal.sample_rate_hz)
    (bandwidth,) = _occupancy(freqs, _weighted_power(signal.samples, n_fft), 0.95)
    return bandwidth


def demodulate_file(
    in_path,
    out_path,
    config: DemodulationConfig = DemodulationConfig(),
    phase_search: bool = False,
) -> float:
    """Demodulate channel 0 of a WAV file, write the result, and report
    the recovered bandwidth in Hz (measured on the samples written)."""
    clip = read_wav(in_path)
    recovered = demodulate(to_float(clip, channel=0), config, phase_search=phase_search)
    pcm = to_pcm(recovered)
    write_wav(out_path, pcm)
    # write/read is byte-exact, so the in-memory clip is what the file holds
    return recovered_bandwidth(to_float(pcm, channel=0))
