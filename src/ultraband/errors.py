"""Exception taxonomy shared across the toolkit.

Every error raised on purpose derives from UltrabandError so callers can
catch one type at the boundary. The CLI maps subgroups onto sysexits-style
codes (data problems vs. genuine I/O failures).

The number rules at the end are the one place where a numeric setting or a
WAV header field is range-checked; every module, ``wavio`` up, uses them.
``opened`` is the one rule for a file read or written whole: OSError -> IoFailure.
"""

import contextlib
import math


class UltrabandError(Exception):
    """Base class for all errors this package raises deliberately."""


class BadArgument(UltrabandError, ValueError):
    """A function argument is out of its documented range; also a ValueError."""


# --- WAV container ---

class NotWav(UltrabandError):
    """File is not a RIFF/WAVE container."""


class UnsupportedFormat(UltrabandError):
    """Recognized audio, but not 16-bit integer PCM (e.g. MP3, float WAV)."""


class TruncatedFile(UltrabandError):
    """Container declares more bytes than the file holds."""


class IoFailure(UltrabandError):
    """Underlying read or write failed."""


class BadChannel(UltrabandError):
    """Requested channel index does not exist in the clip."""


# --- DSP kernels ---

class BadCutoff(UltrabandError):
    """Cutoff frequency outside (0, rate/2)."""


class BadTaps(UltrabandError):
    """Filter length is even, too small, or not an integer."""


class RateMismatch(UltrabandError):
    """Signal sample rate differs from the rate a filter was designed for."""


class EmptySignal(UltrabandError):
    """Operation needs at least one sample."""


class BadAlpha(UltrabandError):
    """Window taper fraction outside [0, 1]."""


class BadRate(BadArgument):
    """Sample rate must be positive and finite; also a ValueError."""


# --- Modulation pipeline ---

class ConfigInvalid(UltrabandError):
    """A configuration value violates the documented constraints."""


# --- Spectral analysis ---

class SignalTooShort(UltrabandError):
    """Signal shorter than one analysis frame."""


class BadBand(UltrabandError):
    """Frequency band is empty, negative, or extends past Nyquist."""


# --- Steganographic embedding ---

class NoRoom(UltrabandError):
    """No silent region long enough to hold the payload."""


class RateTooLow(UltrabandError):
    """Host sample rate cannot represent the payload's band."""


# --- Catalog / survey data ---

class ParseError(UltrabandError):
    """Malformed row or field in a CSV data file."""


class EmptyInput(UltrabandError):
    """Aggregation called with no records."""


# --- File boundary ---

@contextlib.contextmanager
def opened(path, mode: str, what: str = "", **kwargs):
    """``open(path, mode, **kwargs)`` for a ``with`` block; an OSError from the
    open, the block or the close raises IoFailure("cannot read|write {what}{path}: ...")."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        verb = "read" if mode.startswith("r") else "write"
        raise IoFailure(f"cannot {verb} {what}{path}: {exc}") from exc


# --- Number rules ---

def check_positive(value, error: type, name: str) -> None:
    """Raise ``error`` unless ``0 < value < inf``; NaN fails too."""
    if not 0 < value < math.inf:
        raise error(f"{name} {value} must be positive and finite")


def check_count(value, error: type, name: str, low: int, high: float = math.inf) -> int:
    """Return ``value`` as an int; raise ``error`` unless it is a whole number
    in [low, high]. NaN, inf and 2.5 fail; 64.0 passes as 64."""
    if not (low <= value <= high and value % 1 == 0):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise error(f"{name} {value} must be a whole number {bounds}")
    return int(value)


def check_fraction(value, error: type, name: str, zero_ok: bool = False) -> None:
    """Raise ``error`` unless ``value`` lies in (0, 1], or in [0, 1] when
    ``zero_ok`` is set; NaN fails too."""
    if not (0 <= value <= 1 if zero_ok else 0 < value <= 1):
        raise error(f"{name} {value} outside {'[' if zero_ok else '('}0, 1]")
