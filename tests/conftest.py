"""Shared test settings.

Property tests run under one deterministic hypothesis profile: examples
are derived from each test's source rather than a random seed, their
number is bounded so the suite's run time is too, and no per-example
deadline applies (a shared CPU makes single-example timings noisy).
"""

from hypothesis import settings

settings.register_profile("nbflow", derandomize=True, max_examples=50,
                          deadline=None, database=None)
settings.load_profile("nbflow")
