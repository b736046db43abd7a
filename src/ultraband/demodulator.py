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
from .kernels import (BAND_HZ, CARRIER_HZ, FIR_TAPS, FirFilter, _carrier, _normalize, _overlap_add,
                      _phase, check_band, check_taps, design_lowpass)
from .wavio import PcmClip, SampleBuffer, WavFile, _finite, _peak, open_wav, to_pcm, write_wav

#: Candidate carrier phases tried when ``phase_search`` is requested.
PHASE_CANDIDATES = 16

#: Recovered peaks below this fraction of the input peak are treated as
#: "nothing there": the residue is returned unscaled instead of being
#: amplified to full scale.
_RECOVERY_FLOOR = 0.01


def demodulate(
    signal: SampleBuffer | PcmClip | WavFile,
    carrier_hz: float = CARRIER_HZ,
    recovery_cutoff_hz: float = BAND_HZ,
    filter_taps: int = FIR_TAPS,
    phase_search: bool = False,
) -> SampleBuffer:
    """Recover baseband audio from a high-band signal.

    With ``phase_search`` the detector scores 16 evenly spaced carrier
    phases and keeps the one with the most output energy; useful when the
    input is a recording whose first sample does not line up with the
    transmitter's carrier. The search costs one filter pass whatever the
    candidate count: one complex band-pass at the carrier gives the in-phase
    and quadrature arms from one transform of the input, as in ``modulate``
    (R. G. Lyons, *Understanding Digital Signal Processing*, 3rd ed., 2011,
    ch. 9). Opposite phases tie in energy; the one in [0, pi) is returned,
    so the output polarity is deterministic.
    Output is peak normalized unless the recovered level is negligible
    next to the input (then the residue is returned as-is, so silence stays
    silent and out-of-band input stays tiny). The carrier comes from a table
    of whole periods with its phase reduced exactly, as in ``modulate``, so
    a carrier that repeats within the signal does not drift over a long
    recording.

    A ``PcmClip``'s or an open ``WavFile``'s channel 0 is read a span at a
    time, to the bit as ``to_float`` reads it. Their input peak is needed
    only when the recovered level is under the floor of a full-scale input;
    a ``WavFile``'s then comes from a second read, of its int16 spans.
    Without the search the filter forms the product with the carrier block
    by block; with it, the filter's two output rows are mixed with the
    carrier block by block.

    ConfigInvalid unless [carrier, carrier + recovery cutoff] fits under the
    signal's Nyquist frequency and ``filter_taps`` is an odd integer >= 3.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot demodulate an empty signal")
    rate = float(signal.sample_rate_hz)
    check_band(carrier_hz, recovery_cutoff_hz, rate, ConfigInvalid, "recovery_cutoff_hz")
    check_taps(filter_taps, ConfigInvalid, "filter_taps")

    lpf = design_lowpass(recovery_cutoff_hz, rate, filter_taps)
    cos, sin = _carrier(carrier_hz, rate, len(signal))
    if not phase_search:
        # 2 * x * cos can overflow, so the finiteness check stays
        recovered = _finite(_overlap_add(signal, lpf.taps, mix_in=2.0 * cos))
    else:
        # I + jQ, the low-passed 2x * e^(j*theta), equals e^(j*theta) times x
        # through the band-pass 2h * e^(-j*w*k): one input transform for both.
        # Filtering 2x*cos(theta + phi) equals cos(phi)*I - sin(phi)*Q by
        # linearity, so the candidate energies follow from II, QQ and IQ.
        # Candidates k and k + 8 are negations with equal energy: score
        # k < 8 only and let argmax keep the lowest index on ties.
        i_arm, q_arm = (_finite(arm) for arm in _overlap_add(
            signal, _band_pass_taps(lpf, carrier_hz, rate), mix_out=(cos, sin), quadrature=True))
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

    # Judge the recovered level away from the filter's zero-padding
    # warm-up: the leading/trailing group-delay spans hold onset
    # transients that would trip the gate when there is nothing to
    # recover.
    d = lpf.group_delay
    core = recovered[d:-d] if recovered.size > 2 * d else recovered
    out_peak = max(float(core.max()), -float(core.min())) if core.size else 0.0
    # a PCM input's peak is at most 1.0, so a core above the floor needs no scan of it
    loud = out_peak > _RECOVERY_FLOOR and not isinstance(signal, SampleBuffer)
    if out_peak > 0.0 and (loud or out_peak > _RECOVERY_FLOOR * _peak(signal)):
        _normalize(recovered, 1.0, recovered)
    return SampleBuffer._adopt(recovered, rate)


def _band_pass_taps(lpf: FirFilter, carrier_hz: float, rate: float) -> np.ndarray:
    """Rows 2h * cos(w*k) and -2h * sin(w*k), k = -d..d: the real and imaginary
    parts of the recovery low-pass h moved down to the carrier w, doubled."""
    d = lpf.group_delay
    phase = _phase(carrier_hz, rate, np.arange(-d, d + 1))
    return np.stack([2.0 * lpf.taps * np.cos(phase), -2.0 * lpf.taps * np.sin(phase)])


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
    rate are checked before the file is read. The file is read a span at a
    time (``open_wav``), so the recording is never whole in memory."""
    check_positive(carrier_hz, ConfigInvalid, "carrier_hz")
    check_positive(recovery_cutoff_hz, ConfigInvalid, "recovery_cutoff_hz")
    check_taps(filter_taps, ConfigInvalid, "filter_taps")
    with open_wav(in_path) as recording:
        pcm = to_pcm(demodulate(recording, carrier_hz, recovery_cutoff_hz, filter_taps,
                                phase_search))
    write_wav(out_path, pcm)
    # write/read is byte-exact, so the in-memory clip is what the file holds
    return recovered_bandwidth(pcm)
