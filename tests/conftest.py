import random

import pytest

from fourpoint.protocol import MINI, PRODUCTION, TOY, _draw, derive_session


@pytest.fixture
def toy():
    return TOY


@pytest.fixture
def mini():
    return MINI


@pytest.fixture
def production():
    return PRODUCTION


def fresh_session(profile, rng):
    """Draw (S, z) by protocol._draw until derivation succeeds."""
    return _draw(lambda _: derive_session(rng.randbytes(32),
                                          rng.randbytes(32), profile))


@pytest.fixture
def session_factory():
    rng = random.Random(0xF0A4)
    return lambda profile: fresh_session(profile, rng)
