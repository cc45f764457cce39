"""Hypothesis settings profiles shared by the whole suite.

* ``default`` — what a plain ``pytest`` run loads.  Derandomized and
  without the example database, so every run explores the same examples
  and a result never depends on what an earlier run left behind.
  Counterexamples are pinned with ``@example`` next to the program fix.
* ``deep`` — random exploration with ten times the examples, for a
  separate CI step: ``pytest --hypothesis-profile=deep tests/similarity
  tests/decision``.  What it finds becomes a fix plus a pinned example.

Tests that set their own ``max_examples`` wrap it in :func:`budget`, so
the profile scales them too.
"""

from hypothesis import settings

#: Hypothesis' own default example count; ``budget`` scales relative to it.
_BASE_EXAMPLES = 100

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("deep", max_examples=10 * _BASE_EXAMPLES)
settings.load_profile("default")


def budget(examples: int) -> int:
    """A test's example count under the loaded profile.

    Equal to ``examples`` under ``default``; scaled by the profile's
    ``max_examples`` relative to Hypothesis' default otherwise.
    """
    return examples * settings.default.max_examples // _BASE_EXAMPLES
