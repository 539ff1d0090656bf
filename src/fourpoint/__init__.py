"""Invariant-based symmetric authentication over prime fields.

Library layout:
  modmath     exact arithmetic over Z_M (FieldElem, EvalPoint, inverses)
  oscillator  antiperiodic keyed pseudorandom oscillators
  genfunc     the masked generating function s_M(t)
  invariant   the four-point identity, recovery, analytic reference
  protocol    session derivation, Alice/Bob, 132-byte wire format
  harness     forgery games, adversaries, exhaustive oracles
  cli         `fourpoint` command-line front end
  selftest    the CLI's property suites and fixture generators
"""

from .errors import (AbortNonInvertible, AbortSingular, AbortZeroIndex,
                     BadLength, DomainError, FieldOverflow, FourPointError,
                     NonInvertible, ProtocolAbort, RejectDenominator,
                     RejectHash, RejectRange, RejectSession, SeedTooLarge,
                     SingularDenominator, SingularPoint, VerificationError)
from .modmath import EvalPoint, FieldElem, Modulus
from .protocol import (MINI, PRODUCTION, TOY, Message, Profile, Session,
                       alice_generate, bob_verify, derive_session,
                       deserialize, get_profile, load_profile, serialize)

__version__ = "0.1.0"
