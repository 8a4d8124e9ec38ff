"""Hypothesis profiles of the test suite.

``tier1``, loaded by default, derandomizes: every run draws the same
examples, so a run fails exactly when the previous one did. ``explore``
draws new examples on every run, ten times each test's ``max_examples``, to
look for the failures that tier-1's fixed examples miss:

    python -m pytest -q tests/test_psd.py tests/test_recover.py tests/test_measures.py \\
        tests/test_definetti.py tests/test_profiles.py --hypothesis-profile=explore

Each failing example it finds goes into its test as an ``@example``.
"""

from hypothesis import settings

EXPLORE_FACTOR = 10

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    # A test's own @settings(max_examples=...) wins over any profile's, so
    # explore scales each test's count where @given keeps its settings.
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()  # a parametrized test's items share one function
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and test not in scaled:
            scaled.add(test)
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples)
