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

from repro.similarity import (bag_distance, bag_filter_bound,
                              bounded_edit_similarity, bounded_levenshtein,
                              damerau_similarity, filtered_edit_similarity,
                              length_filter_bound, levenshtein_distance,
                              levenshtein_similarity)
from tests.conftest import budget

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
