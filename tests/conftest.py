"""Shared test settings: property tests draw the same examples on every run."""

from hypothesis import settings

# derandomize draws examples from a fixed seed; with no example database, no run
# replays or saves failing examples, so one run cannot change what the next one tests
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
