"""Suite-wide settings.

Property tests run under a derandomized hypothesis profile: every run of
the suite draws the same examples, and nothing is written to a local
example database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
