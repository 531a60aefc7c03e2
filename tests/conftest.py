"""Pytest configuration shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a failure repeats exactly and tier-1 runtime stays fixed.
settings.register_profile("kgkit", derandomize=True, deadline=None, max_examples=200, database=None)
settings.load_profile("kgkit")
