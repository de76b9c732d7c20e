"""Shared test settings: every hypothesis property test runs a fixed,
reproducible set of examples (no example database, no deadline)."""

from hypothesis import settings

settings.register_profile("wogd", derandomize=True, database=None, deadline=None)
settings.load_profile("wogd")
