"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with a bounded example count and no
example database, so the suite stays reproducible and its run time
bounded.
"""

from hypothesis import settings

settings.register_profile("psdo", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("psdo")
