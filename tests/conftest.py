"""Shared test settings: hypothesis draws the same examples on every run
(seeded from each test's own source) and keeps no example database, so a
tier-1 run is reproducible."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
