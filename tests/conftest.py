"""Suite-wide hypothesis settings.

Property tests draw the same examples on every run (derandomize) and
have no per-example deadline, so a slow shared host cannot turn a
passing property into a flaky failure.
"""

from hypothesis import settings

settings.register_profile("coldsim", derandomize=True, deadline=None)
settings.load_profile("coldsim")
