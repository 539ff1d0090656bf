"""Exception hierarchy for the fourpoint package.

Every class here belongs to one of four families: malformed wire data
(BadLength, FieldOverflow), protocol aborts (Alice redraws and retries),
verification rejections (Bob refuses a message), and the modular
arithmetic, where a value that must be inverted and is 0 mod M raises
NonInvertible, wherever it occurs. A bad argument anywhere else raises
ValueError. Everything here derives from FourPointError so
`except FourPointError` catches the lot.
"""


class FourPointError(Exception):
    """Base class for all package errors."""


# --- modular arithmetic ---

class NonInvertible(FourPointError):
    """A value that must be inverted is 0 mod the prime M: the base of a
    negative power, a grid denominator K, a base p, an evaluation point's
    image in s_M, or the invariant's or recovery's denominator."""


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
