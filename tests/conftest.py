"""Hypothesis profiles for the whole suite.

Property tests run exact arithmetic whose time varies too much between
examples for a per-example deadline, so no profile sets one. The "ci"
profile, loaded when the CI environment variable is set, also
derandomizes the examples, so a CI run is reproducible.
"""

import os

from hypothesis import settings

settings.register_profile("dev", parent=settings.get_profile("default"),
                          deadline=None)
settings.register_profile("ci", parent=settings.get_profile("dev"),
                          derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "dev")
