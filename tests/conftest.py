"""Test-wide settings.

`hypothesis` runs without its per-example deadline: example times swing with
the host's load, so a deadline fails tests on timing alone, never on a result.
Each property keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("hirzquant", deadline=None)
settings.load_profile("hirzquant")
