"""Property tests: a disk-served φ score equals a fresh evaluation.

The soundness claim behind the persistent cache is pointwise: for any
registered φ and any pair of strings, recording the exact score,
flushing it, and reloading it in a fresh store yields the very float φ
would compute — bit-identical, not approximately equal.  Hypothesis
sweeps the claim across every built-in φ and adversarial unicode.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import get_similarity
from repro.similarity.store import PersistentPhiCache
from tests.conftest import budget
from tests.similarity.conftest import PHI_NAMES, adversarial_text


@st.composite
def phi_and_pair(draw):
    return (draw(st.sampled_from(PHI_NAMES)),
            draw(adversarial_text), draw(adversarial_text))


@settings(max_examples=budget(150), deadline=None)
@given(cases=st.lists(phi_and_pair(), min_size=1, max_size=12))
def test_disk_served_score_equals_fresh_evaluation(tmp_path_factory, cases):
    directory = tmp_path_factory.mktemp("phistore")
    writer = PersistentPhiCache(str(directory)).open()
    expected = {}
    for phi, left, right in cases:
        value = get_similarity(phi)(left, right)
        assert isinstance(value, float) and math.isfinite(value)
        writer.record((phi, left, right), value)
        expected[(phi, left, right)] = value
    writer.flush()

    reloaded = PersistentPhiCache(str(directory)).open()
    assert not reloaded.warnings
    for (phi, left, right), value in expected.items():
        served = reloaded.lookup((phi, left, right))
        assert served == value                     # bit-identical
        assert served == get_similarity(phi)(left, right)


@settings(max_examples=budget(150), deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       left=adversarial_text, right=adversarial_text)
def test_any_finite_float_round_trips_exactly(tmp_path_factory, value,
                                              left, right):
    directory = tmp_path_factory.mktemp("phistore")
    writer = PersistentPhiCache(str(directory)).open()
    assert writer.record(("edit", left, right), value)
    writer.flush()
    reloaded = PersistentPhiCache(str(directory)).open()
    assert not reloaded.warnings
    served = reloaded.lookup(("edit", left, right))
    assert served == value
    # Bitwise, not just ==: -0.0 and 0.0 compare equal but differ.
    assert math.copysign(1.0, served) == math.copysign(1.0, value)


@settings(max_examples=budget(60), deadline=None)
@given(left=adversarial_text, right=adversarial_text)
def test_nonfinite_values_never_enter_the_store(tmp_path_factory, left,
                                                right):
    directory = tmp_path_factory.mktemp("phistore")
    store = PersistentPhiCache(str(directory)).open()
    for bad in (math.nan, math.inf, -math.inf):
        assert not store.record(("edit", left, right), bad)
    assert store.pending == 0
    assert store.flush() == 0
