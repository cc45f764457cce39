"""Hypothesis properties: batched evaluation ≡ pair-at-a-time.

The differential battery (``test_batch_equivalence``) pins the batch
layer against concrete corpora; this suite sweeps the *claim itself*
across random field specifications, weights, thresholds, adversarial
unicode (combining marks, astral codepoints, control characters),
empty strings, and missing values — with filters on and off:

* ``score_block`` is bitwise equal to mapping ``plan.score``;
* ``decide_block`` equals mapping ``plan.decide``;
* ``evaluate_block`` reproduces outcomes *and* every non-batch stats
  counter;
* a pair the column-wise prefilter drops really is below threshold
  (soundness — a drop never hides a true duplicate).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (ComparisonPlan, ComparisonStats, PairBatch,
                              PhiCache, PlanField)
from tests.conftest import budget
from tests.similarity.conftest import PHI_NAMES, adversarial_text

BATCH_ONLY = {"batched_pairs", "batch_prefilter_drops"}

value_or_missing = st.one_of(st.none(), adversarial_text)


@st.composite
def plan_spec(draw):
    """A random field specification: 1-4 weighted φs."""
    count = draw(st.integers(min_value=1, max_value=4))
    fields = []
    for index in range(count):
        weight = draw(st.floats(min_value=0.05, max_value=1.0,
                                allow_nan=False))
        phi = draw(st.sampled_from(PHI_NAMES))
        fields.append(PlanField(f"f{index}", weight, phi))
    return fields


@st.composite
def spec_and_block(draw, with_threshold):
    fields = draw(plan_spec())
    threshold = (draw(st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False))
                 if with_threshold else None)
    width = len(fields)
    row = st.lists(value_or_missing, min_size=width, max_size=width)
    block = draw(st.lists(st.tuples(row, row), min_size=1, max_size=8))
    return fields, threshold, block


def fresh_plan(fields, threshold):
    return ComparisonPlan(fields, threshold=threshold,
                          phi_cache=PhiCache(32768),
                          stats=ComparisonStats())


def stats_modulo_batch(plan):
    return {name: value for name, value in plan.stats.as_dict().items()
            if name not in BATCH_ONLY}


@settings(max_examples=budget(120), deadline=None)
@given(case=spec_and_block(with_threshold=False))
def test_score_block_bitwise_equals_pairwise_scores(case):
    fields, threshold, block = case
    serial = fresh_plan(fields, threshold)
    batched = fresh_plan(fields, threshold)
    scores = PairBatch(batched).score_block(block)
    assert scores == [serial.score(left, right) for left, right in block]
    assert stats_modulo_batch(batched) == stats_modulo_batch(serial)
    assert batched.stats.batched_pairs == len(block)


@settings(max_examples=budget(120), deadline=None)
@given(case=spec_and_block(with_threshold=True))
def test_decide_block_equals_pairwise_decisions(case):
    fields, threshold, block = case
    serial = fresh_plan(fields, threshold)
    batched = fresh_plan(fields, threshold)
    decisions = PairBatch(batched).decide_block(block)
    assert decisions == [serial.decide(left, right) for left, right in block]
    # The pruned path and the exact path agree with the naive truth.
    exact = fresh_plan(fields, None)
    assert decisions == [exact.score(left, right) >= threshold
                        for left, right in block]


@settings(max_examples=budget(120), deadline=None)
@given(case=spec_and_block(with_threshold=True))
def test_evaluate_block_reproduces_outcomes_and_stats(case):
    fields, threshold, block = case
    serial = fresh_plan(fields, threshold)
    batched = fresh_plan(fields, threshold)
    outcomes = PairBatch(batched).evaluate_block(block)
    expected = [serial.evaluate(left, right) for left, right in block]
    assert [(o.score, o.exact, o.prefiltered, o.fields_evaluated)
            for o in outcomes] \
        == [(o.score, o.exact, o.prefiltered, o.fields_evaluated)
            for o in expected]
    assert stats_modulo_batch(batched) == stats_modulo_batch(serial)


@settings(max_examples=budget(120), deadline=None)
@given(case=spec_and_block(with_threshold=True))
def test_prefilter_drops_are_sound(case):
    """A batch-dropped pair is provably below threshold."""
    fields, threshold, block = case
    batched = fresh_plan(fields, threshold)
    exact = fresh_plan(fields, None)
    batch = PairBatch(batched)
    probes = batch.probe_block(block)
    for (left, right), probe in zip(block, probes):
        true_score = exact.score(left, right)
        if probe.prefiltered:
            assert true_score < threshold
            # The recorded bound dominates the exact score.
            assert probe.score >= true_score
    assert batched.stats.batch_prefilter_drops \
        == sum(1 for probe in probes if probe.prefiltered)
