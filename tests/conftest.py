"""Shared test settings and fixtures.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with a bounded example count and no
example database, so the suite stays reproducible and its run time
bounded. The draws are seeded from the property's source, so an edit
of its body swaps its whole example set: a case that must hold (one
that once exposed a defect) gets an explicit `@example`.

`battery` is the full seed-0 verify battery, run once per session and
read by the acceptance criteria and the dense-oracle check of the
`infinitesimal` suite.
"""

import pytest
from hypothesis import settings

from psdo.blas import narrow
from psdo.verify import run_suites

settings.register_profile("psdo", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("psdo")


@pytest.fixture(scope="session")
def battery():
    """The full seed-0 battery, run once for the whole session, under
    the BLAS thread policy of `psdo verify`."""
    with narrow():
        return run_suites(seed=0)
