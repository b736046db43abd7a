"""Coherent recovery of speech from the near-ultrasound band.

Demodulation is the product detector: multiply by twice the carrier, then
low-pass. The factor of two puts a unit-amplitude component back at unit
amplitude. For digital loopback the carrier phase is already aligned; for
external recordings an exhaustive 16-candidate phase search is available.
"""

from __future__ import annotations

import numpy as np

from .analysis import _occupancy, _spectrum
from .errors import ConfigInvalid, EmptySignal, check_positive
from .kernels import (BAND_HZ, CARRIER_HZ, FIR_TAPS, _carrier, _normalize, _overlap_add,
                      check_band, check_taps, design_lowpass)
from .wavio import PcmClip, SampleBuffer, _finite, _peak, read_wav, to_pcm, write_wav

#: Candidate carrier phases tried when ``phase_search`` is requested.
PHASE_CANDIDATES = 16

#: Recovered peaks below this fraction of the input peak are treated as
#: "nothing there": the residue is returned unscaled instead of being
#: amplified to full scale.
_RECOVERY_FLOOR = 0.01


def demodulate(
    signal: SampleBuffer | PcmClip,
    carrier_hz: float = CARRIER_HZ,
    recovery_cutoff_hz: float = BAND_HZ,
    filter_taps: int = FIR_TAPS,
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
    silent and out-of-band input stays tiny). The carrier comes from a table
    of whole periods with its phase reduced exactly, as in ``modulate``, so
    a carrier that repeats within the signal does not drift over a long
    recording.

    A ``PcmClip``'s channel 0 is read a span at a time, to the bit as
    ``to_float`` reads it. The filter forms the product with the carrier
    block by block, one row per carrier table.

    ConfigInvalid unless [carrier, carrier + recovery cutoff] fits under the
    signal's Nyquist frequency and ``filter_taps`` is an odd integer >= 3.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot demodulate an empty signal")
    rate = float(signal.sample_rate_hz)
    check_band(carrier_hz, recovery_cutoff_hz, rate, ConfigInvalid, "recovery_cutoff_hz")
    check_taps(filter_taps, ConfigInvalid, "filter_taps")

    lpf = design_lowpass(recovery_cutoff_hz, rate, filter_taps)
    tables = [2.0 * table for table in _carrier(carrier_hz, rate, len(signal))[: 1 + phase_search]]
    # 2 * x * c can overflow, so the finiteness check stays; each arm is its own array
    arms = [_finite(arm) for arm in _overlap_add(signal, lpf.taps, mix_in=tables)]
    recovered = arms[0]
    if phase_search:
        # Filtering 2x*cos(theta + phi) equals cos(phi)*I - sin(phi)*Q by
        # linearity, so the candidate energies follow from II, QQ and IQ.
        # Candidates k and k + 8 are negations with equal energy: score
        # k < 8 only and let argmax keep the lowest index on ties.
        i_arm, q_arm = arms
        phis = 2.0 * np.pi * np.arange(PHASE_CANDIDATES // 2) / PHASE_CANDIDATES
        c, s = np.cos(phis), np.sin(phis)
        # numpy's own loop: OpenBLAS's threaded dot spins on the other core
        ii = np.einsum("i,i->", i_arm, i_arm)
        qq = np.einsum("i,i->", q_arm, q_arm)
        iq = np.einsum("i,i->", i_arm, q_arm)
        k = int(np.argmax(c * c * ii + s * s * qq - 2.0 * s * c * iq))
        i_arm *= c[k]
        q_arm *= s[k]
        recovered = _finite(np.subtract(i_arm, q_arm, out=i_arm))

    in_peak = _peak(signal)
    # Judge the recovered level away from the filter's zero-padding
    # warm-up: the leading/trailing group-delay spans hold onset
    # transients that would trip the gate when there is nothing to
    # recover.
    d = lpf.group_delay
    core = recovered[d:-d] if recovered.size > 2 * d else recovered
    out_peak = max(float(core.max()), -float(core.min())) if core.size else 0.0
    if out_peak > _RECOVERY_FLOOR * in_peak and out_peak > 0.0:
        _normalize(recovered, 1.0, recovered)
    return SampleBuffer._adopt(recovered, rate)


def recovered_bandwidth(signal: SampleBuffer | PcmClip) -> float:
    """Smallest frequency below which 95% of the signal's energy lies, in the
    segmented spectrum that ``band_energy`` sums (``analysis._spectrum``).

    Useful as a one-number judgment of how much of the original band
    survived a modulate/transmit/demodulate trip. A ``PcmClip``'s channel 0
    is read a block at a time, with the bits of ``to_float``'s samples and
    no float copy of the clip.
    """
    if len(signal) == 0:
        raise EmptySignal("no bandwidth for an empty signal")
    (bandwidth,) = _occupancy(*_spectrum(signal), 0.95)
    return bandwidth


def demodulate_file(
    in_path,
    out_path,
    carrier_hz: float = CARRIER_HZ,
    recovery_cutoff_hz: float = BAND_HZ,
    filter_taps: int = FIR_TAPS,
    phase_search: bool = False,
) -> float:
    """Demodulate channel 0 of a WAV file, write the result, and report
    the recovered bandwidth in Hz (measured on the samples written).

    The settings are those of ``demodulate``; the rules that need no sample
    rate are checked before the file is read."""
    check_positive(carrier_hz, ConfigInvalid, "carrier_hz")
    check_positive(recovery_cutoff_hz, ConfigInvalid, "recovery_cutoff_hz")
    check_taps(filter_taps, ConfigInvalid, "filter_taps")
    pcm = to_pcm(demodulate(read_wav(in_path), carrier_hz, recovery_cutoff_hz, filter_taps,
                            phase_search))
    write_wav(out_path, pcm)
    # write/read is byte-exact, so the in-memory clip is what the file holds
    return recovered_bandwidth(pcm)
