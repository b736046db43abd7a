"""Exception taxonomy shared across the toolkit.

Every error raised on purpose derives from UltrabandError so callers can
catch one type at the boundary. The CLI maps subgroups onto sysexits-style
codes (data problems vs. genuine I/O failures).
"""


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
