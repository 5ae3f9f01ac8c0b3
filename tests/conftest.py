"""Hypothesis profiles for the suite.

The default profile runs the usual example counts. ``thorough`` runs ten
times as many, for the property tests the run kernels, the trace table's
lookup and the two plant paths are checked by::

    python -m pytest -q tests/test_stepper.py tests/test_plant.py tests/test_cross_plant.py --hypothesis-profile=thorough

Tests that set their own ``max_examples`` scale it from
``settings.default.max_examples``, so the profile reaches them too. Its
deadline is off: a slow example on a shared runner is not a failure.
"""

from hypothesis import settings

settings.register_profile(
    "thorough", max_examples=10 * settings.default.max_examples, deadline=None
)
