"""Test-suite configuration.

Property tests run under a fixed profile: derandomized, so every run tries
the same examples, and without a per-example deadline, so a slow shared
machine cannot make them flake.
"""

from hypothesis import settings

settings.register_profile("propclust", derandomize=True, deadline=None)
settings.load_profile("propclust")
