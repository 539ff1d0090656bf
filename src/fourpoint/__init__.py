"""Invariant-based symmetric authentication over prime fields.

A caller needs `send(S, u, v, profile, log)`, which returns 132 bytes
under a fresh nonce claimed in `log`, a `NonceLog`, and `receive(S, data,
profile)`, which returns v. S must be a uniformly random key.

Library layout:
  modmath     exact arithmetic over Z_M (FieldElem, EvalPoint, inverses)
  prf         the keyed PRF values that sender and receiver read
  oscillator  antiperiodic keyed pseudorandom oscillators
  genfunc     the masked generating function s_M(t), and
              reference_view, a Session typed for it
  invariant   the four-point identity, recovery, analytic reference
  protocol    session derivation, Alice/Bob, 132-byte wire format,
              send/receive and the nonce log
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
from .protocol import (MINI, PRODUCTION, TOY, Message, NonceLog, Profile,
                       Session, alice_generate, bob_verify, derive_session,
                       deserialize, get_profile, load_profile, receive, send,
                       serialize)

__version__ = "0.1.0"
