"""Exception hierarchy for the fourpoint package.

Three families matter to callers: hard usage errors (bad arguments,
malformed wire data), protocol aborts (Alice redraws and retries), and
verification rejections (Bob refuses a message). Everything derives from
FourPointError so `except FourPointError` catches the lot.
"""


class FourPointError(Exception):
    """Base class for all package errors."""


# --- modular arithmetic ---

class NonInvertible(FourPointError):
    """gcd(a, M) != 1 where an inverse was required."""


# --- oscillators ---

class SeedTooLarge(FourPointError):
    """Table mode requested with P = K*C beyond the table cap."""


# --- generating function ---

class SingularPoint(FourPointError):
    """Evaluation point t has field image 0; s_M(t) is undefined."""


# --- invariant ---

class SingularDenominator(FourPointError):
    """Invariant or recovery denominator not invertible mod M."""


class DomainError(FourPointError):
    """Analytic check called at an excluded real point."""


# --- protocol aborts (Alice's side; caller redraws) ---

class ProtocolAbort(FourPointError):
    """Base for abort conditions during session derivation/generation."""


class AbortZeroIndex(ProtocolAbort):
    """Derived fractional index i = 0."""


class AbortSingular(ProtocolAbort):
    """An evaluation point reduced to 0 mod M."""


class AbortNonInvertible(ProtocolAbort):
    """Recovery denominator D = 2(s1*p^2u - s3) not invertible."""


# --- verification rejections (Bob's side) ---

class VerificationError(FourPointError):
    """Base for message rejection reasons."""


class RejectDenominator(VerificationError):
    """Denominator check failed on the received message."""


class RejectHash(VerificationError):
    """Recomputed check hash does not match the message."""


class RejectRange(VerificationError):
    """Recovered value out of the profile's expected bounds."""


class RejectSession(VerificationError):
    """Session recomputation from the received nonce hit an abort
    condition; the message cannot correspond to an honest sender."""


# --- serialization ---

class BadLength(FourPointError):
    """Wire input is not exactly the fixed message length."""


class FieldOverflow(FourPointError):
    """Decoded field value is >= M."""
