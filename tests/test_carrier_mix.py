"""The carrier mix inside the overlap-add keeps every bit of the whole-signal mix.

``modulate`` and ``demodulate`` mix the carrier block by block inside
``kernels._overlap_add`` and may read a ``PcmClip``'s int16 lane directly.
The references below are the whole-signal forms they replace: the two-row
filter output mixed with ``_mix`` and subtracted for ``modulate``, and for
each arm of ``demodulate`` the whole product ``_mix`` then ``apply_filter``.
Each comparison is ``np.array_equal``, on one CPU and on two.
"""

import numpy as np
import pytest

from test_analysis import _threads_end_with_the_call
from test_kernels import _CARRIERS
from ultraband import (BadArgument, ModulationConfig, PcmClip, SampleBuffer, apply_filter,
                       demodulate, demodulate_file, design_lowpass, kernels, modulate,
                       modulate_file, peak_normalize, read_wav, resample, to_float, to_pcm,
                       write_wav)
from ultraband.demodulator import PHASE_CANDIDATES, _RECOVERY_FLOOR
from ultraband.kernels import (_FFT_POINTS, FIR_TAPS, _carrier, _mix, _overlap_add, _taper,
                               next_fast_len)
from ultraband.modulator import _ssb_taps


def _modulate_whole(signal: SampleBuffer, config: ModulationConfig) -> np.ndarray:
    """``modulate`` with the mix over the whole two-row filter output."""
    work = resample(signal, config.working_rate_hz)
    base, quad = _overlap_add(work.samples, _ssb_taps(config))
    cos, sin = _carrier(config.carrier_hz, config.working_rate_hz, len(work))
    mixed = _mix(base, cos, base)
    mixed -= _mix(quad, sin, quad)
    if len(mixed) >= 2:
        _taper(mixed, config.tukey_alpha)
    return peak_normalize(SampleBuffer(mixed, work.sample_rate_hz), config.normalize_target).samples


def _demodulate_whole(signal: SampleBuffer, carrier_hz, cutoff_hz, taps, phase_search) -> np.ndarray:
    """``demodulate`` with each arm a whole product through ``apply_filter``."""
    rate = signal.sample_rate_hz
    lpf = design_lowpass(cutoff_hz, rate, taps)
    arms = [apply_filter(lpf, SampleBuffer(_mix(signal.samples, 2.0 * table, np.empty(len(signal))),
                                           rate)).samples
            for table in _carrier(carrier_hz, rate, len(signal))[: 1 + phase_search]]
    recovered = arms[0]
    if phase_search:
        i_arm, q_arm = arms
        phis = 2.0 * np.pi * np.arange(PHASE_CANDIDATES // 2) / PHASE_CANDIDATES
        c, s = np.cos(phis), np.sin(phis)
        ii, qq, iq = (np.einsum("i,i->", a, b) for a, b in ((i_arm, i_arm), (q_arm, q_arm),
                                                           (i_arm, q_arm)))
        k = int(np.argmax(c * c * ii + s * s * qq - 2.0 * s * c * iq))
        recovered = c[k] * i_arm - s[k] * q_arm
    in_peak = max(float(signal.samples.max()), -float(signal.samples.min()))
    d = lpf.group_delay
    core = recovered[d:-d] if len(recovered) > 2 * d else recovered
    out_peak = max(float(core.max()), -float(core.min())) if core.size else 0.0
    if out_peak > _RECOVERY_FLOOR * in_peak and out_peak > 0.0:
        return peak_normalize(SampleBuffer(recovered, rate), 1.0).samples
    return recovered


def _edges(taps: int, rows: int):
    """Lengths one sample below, at and above one block, one batch and the
    split threshold (two full batches) of ``_overlap_add`` at ``taps`` taps
    and ``rows`` filter rows, as ``test_kernels._split_cases`` counts them."""
    n_fft = next_fast_len(8 * taps)
    step = n_fft - taps + 1
    batch = _FFT_POINTS // (n_fft * rows)
    threshold = -(-2 * _FFT_POINTS // (n_fft * rows))
    return [b * step + e for b in (1, batch, threshold) for e in (-1, 0, 1)]


def _band(freq: float, rate: float) -> float:
    """The widest band up to 6 kHz above ``freq`` that fits under Nyquist."""
    return min(6000.0, rate / 2 - freq)


def _noise(n: int, rate: float, seed: int):
    """Uniform int16 noise as a PcmClip and as the SampleBuffer ``to_float`` reads."""
    clip = PcmClip(np.random.default_rng(seed).integers(-20000, 20000, n, dtype=np.int16), int(rate))
    return clip, to_float(clip)


def _on_cpus(monkeypatch, cpus: int, call):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    return call()


@pytest.mark.parametrize("n", _edges(1023, 2))  # 48 kHz: 1023 taps, two tap rows
@pytest.mark.parametrize("freq, rate, q", _CARRIERS)
def test_modulate_equals_the_whole_signal_mix(monkeypatch, freq, rate, q, n):
    config = ModulationConfig(carrier_hz=freq, cutoff_hz=_band(freq, rate), working_rate_hz=rate)
    clip, buf = _noise(n, rate, n)
    expected = _modulate_whole(buf, config)
    for cpus in (1, 2):
        assert np.array_equal(_on_cpus(monkeypatch, cpus, lambda: modulate(buf, config).samples),
                              expected)
        assert np.array_equal(_on_cpus(monkeypatch, cpus, lambda: modulate(clip, config).samples),
                              expected)


@pytest.mark.parametrize("phase_search", [False, True])
@pytest.mark.parametrize("freq, rate, q", _CARRIERS)
def test_demodulate_equals_the_whole_signal_mix(monkeypatch, freq, rate, q, phase_search):
    cutoff = _band(freq, rate)
    for n in [1, 2, 300] + _edges(FIR_TAPS, 1 + phase_search):
        clip, buf = _noise(n, rate, n)
        expected = _demodulate_whole(buf, freq, cutoff, FIR_TAPS, phase_search)
        for cpus in (1, 2):
            for signal in (buf, clip):
                out = _on_cpus(monkeypatch, cpus,
                               lambda: demodulate(signal, freq, cutoff, FIR_TAPS, phase_search))
                assert np.array_equal(out.samples, expected), (n, cpus, type(signal))


def test_mix_reads_the_table_from_any_first_index():
    cos, sin = _carrier(16000.0, 44100.0, 1 << 20)  # 441-sample periods
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 5000)
    for first in (0, 1, 440, 441, 442, 4409, 123457):
        for size in (0, 1, 440, 441, 442, 5000):
            out = np.empty(size)
            assert _mix(x[:size], sin, out, first) is out
            assert np.array_equal(out, x[:size] * sin[(first + np.arange(size)) % sin.size])


def test_file_functions_read_channel_zero_of_a_stereo_wav(monkeypatch, tmp_path):
    # the channel-0 lane of an interleaved clip is a strided view
    rate, n = 48000, 60000
    lanes = np.random.default_rng(2).integers(-20000, 20000, (n, 2), dtype=np.int16)
    write_wav(tmp_path / "in.wav", PcmClip(lanes.reshape(-1), rate, channels=2))
    left = to_float(read_wav(tmp_path / "in.wav"))
    written = tmp_path / "expected.wav"
    for cpus in (1, 2):
        monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
        modulate_file(tmp_path / "in.wav", tmp_path / "mod.wav")
        write_wav(written, to_pcm(SampleBuffer(_modulate_whole(left, ModulationConfig()), rate)))
        assert (tmp_path / "mod.wav").read_bytes() == written.read_bytes()
        for phase_search in (False, True):
            demodulate_file(tmp_path / "in.wav", tmp_path / "dem.wav", phase_search=phase_search)
            whole = _demodulate_whole(left, 16000.0, 6000.0, FIR_TAPS, phase_search)
            write_wav(written, to_pcm(SampleBuffer(whole, rate)))
            assert (tmp_path / "dem.wav").read_bytes() == written.read_bytes()


@pytest.mark.parametrize("phase_search", [False, True])
def test_demodulate_threads_end_with_the_call(monkeypatch, phase_search):
    clip, _ = _noise(5 * 48000, 48000.0, 5)  # past the split threshold at 255 taps, one row or two
    _threads_end_with_the_call(monkeypatch,
                               lambda: demodulate(clip, phase_search=phase_search).samples)


def test_modulate_threads_end_with_the_call(monkeypatch):
    clip, _ = _noise(3 * 48000, 48000.0, 3)  # past the split threshold at 1023 taps, two rows
    _threads_end_with_the_call(monkeypatch, lambda: modulate(clip).samples)


@pytest.mark.parametrize("call", [modulate, demodulate,
                                  lambda x: demodulate(x, phase_search=True)],
                         ids=["modulate", "demodulate", "phase_search"])
def test_overflow_is_bad_argument(call):
    # the output is scaled in place, so its finiteness check must come first
    x = SampleBuffer(1.7e308 * np.random.default_rng(1).uniform(-1.0, 1.0, 48000), 48000.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BadArgument, match="finite"):
        call(x)
