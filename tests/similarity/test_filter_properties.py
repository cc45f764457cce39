"""Filter soundness properties (randomized corpus, fixed seed).

The comparison plane's pruning is only correct if the filters really
bound the edit family: the length and bag filters must never fall below
the true normalized similarity, and the capped distance must agree with the
exact distance whenever the distance fits under its cap.
"""

import random
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.similarity import (ComparisonPlan, ComparisonStats, PhiCache,
                              PlanField, bag_distance, bag_filter_bound,
                              bounded_edit_similarity, bounded_levenshtein,
                              damerau_similarity, filtered_edit_similarity,
                              length_filter_bound, levenshtein_distance,
                              levenshtein_similarity)
from tests.conftest import budget
from tests.similarity.conftest import PHI_NAMES, adversarial_text

word = st.text(alphabet=string.ascii_lowercase + " '", max_size=24)


def seeded_pairs(seed=97, count=400):
    """A fixed-seed corpus of dirty-looking string pairs."""
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase + "  "
    pairs = []
    for _ in range(count):
        base = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 18)))
        other = list(base)
        for _ in range(rng.randint(0, 4)):  # typos: edit, drop, insert
            action = rng.random()
            position = rng.randrange(len(other) + 1)
            if action < 0.4 and other:
                other[position % len(other)] = rng.choice(alphabet)
            elif action < 0.7 and other:
                del other[position % len(other)]
            else:
                other.insert(position, rng.choice(alphabet))
        pairs.append((base, "".join(other)))
    return pairs


class TestFilterBoundsAreUpperBounds:
    @given(left=word, right=word)
    @settings(max_examples=budget(300))
    def test_length_bound_dominates(self, left, right):
        assert (length_filter_bound(left, right)
                >= levenshtein_similarity(left, right))

    @given(left=word, right=word)
    @settings(max_examples=budget(300))
    def test_bag_bound_dominates(self, left, right):
        assert (bag_filter_bound(left, right)
                >= levenshtein_similarity(left, right))

    @given(left=word, right=word)
    @settings(max_examples=budget(300))
    def test_bag_distance_lower_bounds_edit_distance(self, left, right):
        assert bag_distance(left, right) <= levenshtein_distance(left, right)

    @given(left=word, right=word)
    @settings(max_examples=budget(200))
    def test_bounds_dominate_damerau_too(self, left, right):
        # Transpositions change neither lengths nor character bags, so
        # both filters also bound the Damerau similarity.
        similarity = damerau_similarity(left, right)
        assert length_filter_bound(left, right) >= similarity
        assert bag_filter_bound(left, right) >= similarity

    def test_seeded_corpus_dominance(self):
        for left, right in seeded_pairs():
            exact = levenshtein_similarity(left, right)
            assert length_filter_bound(left, right) >= exact
            assert bag_filter_bound(left, right) >= exact


class TestBoundedLevenshteinAgreement:
    @given(left=word, right=word, cap=st.integers(min_value=0, max_value=30))
    @settings(max_examples=budget(300))
    def test_equals_exact_within_cap(self, left, right, cap):
        exact = levenshtein_distance(left, right)
        banded = bounded_levenshtein(left, right, cap)
        if exact <= cap:
            assert banded == exact
        else:
            assert banded == cap + 1

    def test_seeded_corpus_agreement(self):
        for left, right in seeded_pairs(seed=101):
            exact = levenshtein_distance(left, right)
            for cap in (0, 1, 2, 5, 30):
                banded = bounded_levenshtein(left, right, cap)
                assert banded == (exact if exact <= cap else cap + 1)


class TestBoundedEditSimilarity:
    @given(left=word, right=word,
           floor=st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False))
    @settings(max_examples=budget(300))
    def test_exact_or_dominating_bound(self, left, right, floor):
        exact = levenshtein_similarity(left, right)
        value, is_exact = bounded_edit_similarity(left, right, floor)
        if is_exact:
            assert value == exact
        else:
            # A truncated result is a dominating bound of the exact
            # similarity — the plane prunes on it without risk.
            assert exact <= value < floor

    def test_floor_boundary_epsilon(self):
        # 10 chars at floor 0.9 must still allow distance exactly 1.
        value, is_exact = bounded_edit_similarity("abcdefghij",
                                                  "abcdefghiX", 0.9)
        assert is_exact and value == 0.9


class TestFilteredEditSimilarity:
    @given(left=word, right=word,
           floor=st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False))
    @example(left="abcdefghij", right="abcdefghiz", floor=0.9000000000001)
    @settings(max_examples=budget(300))
    def test_exact_at_or_above_floor_else_zero(self, left, right, floor):
        # The floor-boundary epsilon admits distance 1 here, but its
        # similarity 0.9 still lies below the floor: the answer is 0.0.
        exact = levenshtein_similarity(left, right)
        expected = exact if exact >= floor else 0.0
        assert filtered_edit_similarity(left, right, floor) == expected


# ---------------------------------------------------------------------------
# The comparison plane's per-string memo and pair-level prefilter


@st.composite
def repeated_strings(draw):
    """Strings drawn with repeats and shared prefixes, as the window
    phase produces them (an anchor meets every predecessor)."""
    stem = draw(adversarial_text)
    pool = draw(st.lists(st.one_of(adversarial_text,
                                   st.builds(lambda tail: stem + tail,
                                             adversarial_text)),
                         min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))


class TestMemoizedFieldBound:
    @given(strings=repeated_strings())
    @settings(max_examples=budget(200), deadline=None)
    def test_memoized_bound_equals_filter_functions(self, strings):
        plan = ComparisonPlan([PlanField("f", 1.0, "edit")], threshold=0.5)
        field = plan.fields[0]
        for left, right in zip(strings, strings[1:] + strings[:1]):
            expected = min(length_filter_bound(left, right),
                           bag_filter_bound(left, right))
            assert plan._field_bound(field, left, right) == expected


@st.composite
def spec_and_pairs(draw):
    """A random 1-4 field plan, a threshold, and up to 8 value pairs."""
    count = draw(st.integers(min_value=1, max_value=4))
    fields = [PlanField(f"f{index}",
                        draw(st.floats(min_value=0.05, max_value=1.0,
                                       allow_nan=False)),
                        draw(st.sampled_from(PHI_NAMES)))
              for index in range(count)]
    threshold = draw(st.floats(min_value=0.0, max_value=1.0,
                               allow_nan=False))
    row = st.lists(st.one_of(st.none(), adversarial_text),
                   min_size=count, max_size=count)
    pairs = draw(st.lists(st.tuples(row, row), min_size=1, max_size=8))
    return fields, threshold, pairs


class TestPrefilterSoundness:
    @given(case=spec_and_pairs())
    @settings(max_examples=budget(120), deadline=None)
    def test_prefilter_drops_are_sound(self, case):
        """A pair the plan's probe drops is provably below threshold."""
        fields, threshold, pairs = case
        plan = ComparisonPlan(fields, threshold=threshold,
                              phi_cache=PhiCache(32768),
                              stats=ComparisonStats())
        exact = ComparisonPlan(fields, phi_cache=PhiCache(32768))
        drops = 0
        for left, right in pairs:
            probe = plan.probe(left, right)
            if probe.prefiltered:
                drops += 1
                true_score = exact.score(left, right)
                assert true_score < threshold
                # The recorded bound dominates the exact score.
                assert probe.score >= true_score
        assert plan.stats.pairs_prefiltered == drops
