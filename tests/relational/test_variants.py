"""Unit tests for DE-SNM, incremental SNM, and baseline strategies."""

import pytest

from repro.clustering import UnionFind
from repro.relational import (FieldRule, IncrementalSnm, Relation,
                              RelationalKey, WeightedFieldMatcher, all_pairs,
                              duplicate_elimination_snm, sorted_neighborhood,
                              standard_blocking)


def build_relation(rows):
    relation = Relation(["title", "year"])
    relation.extend(rows)
    return relation


ROWS = [
    {"title": "Mask of Zorro", "year": "1998"},
    {"title": "Mask of Zorro", "year": "1998"},   # exact duplicate
    {"title": "Mask of Zoro", "year": "1998"},    # typo duplicate
    {"title": "The Matrix", "year": "1999"},
    {"title": "Matrix", "year": "1999"},
    {"title": "Speed", "year": "1994"},
]

KEY = RelationalKey.create([("title", "K1-K4"), ("year", "D3,D4")])
MATCHER = WeightedFieldMatcher(
    [FieldRule("title", 0.8), FieldRule("year", 0.2, "year")], threshold=0.72)


class TestDeSnm:
    def test_finds_same_duplicates_as_snm(self):
        relation = build_relation(ROWS)
        snm = sorted_neighborhood(relation, [KEY], MATCHER, window=4)
        desnm = duplicate_elimination_snm(relation, [KEY], MATCHER, window=4)
        snm_clusters = {tuple(sorted(c)) for c in snm.clusters if len(c) > 1}
        desnm_clusters = {tuple(sorted(c)) for c in desnm.clusters if len(c) > 1}
        assert snm_clusters == desnm_clusters

    def test_fewer_window_comparisons_with_exact_dups(self):
        rows = ROWS * 5  # heavy exact duplication
        relation = build_relation(rows)
        snm = sorted_neighborhood(relation, [KEY], MATCHER, window=5)
        desnm = duplicate_elimination_snm(relation, [KEY], MATCHER, window=5)
        assert desnm.comparisons < snm.comparisons

    def test_trust_equal_keys_skips_matcher_calls(self):
        relation = build_relation(ROWS)
        trusting = duplicate_elimination_snm(relation, [KEY], MATCHER,
                                             window=4, trust_equal_keys=True)
        assert (0, 1) in trusting.pairs

    def test_validation(self):
        relation = build_relation(ROWS)
        with pytest.raises(ValueError):
            duplicate_elimination_snm(relation, [], MATCHER)
        with pytest.raises(ValueError):
            duplicate_elimination_snm(relation, [KEY], MATCHER, window=1)


class TestIncrementalSnm:
    def test_matches_batch_snm_result(self):
        incremental = IncrementalSnm(["title", "year"], [KEY], MATCHER, window=4)
        incremental.add_batch(ROWS[:3])
        incremental.add_batch(ROWS[3:])
        batch = sorted_neighborhood(build_relation(ROWS), [KEY], MATCHER,
                                    window=4)
        assert incremental.pairs == batch.pairs

    def test_old_pairs_not_recompared(self):
        incremental = IncrementalSnm(["title", "year"], [KEY], MATCHER, window=4)
        incremental.add_batch(ROWS)
        first_comparisons = incremental.comparisons
        incremental.add_batch([{"title": "Totally New", "year": "2001"}])
        added = incremental.comparisons - first_comparisons
        # Only neighborhoods around the single new record are compared.
        assert added <= 2 * (4 - 1)

    def test_clusters_cover_all_records(self):
        incremental = IncrementalSnm(["title", "year"], [KEY], MATCHER, window=3)
        incremental.add_batch(ROWS[:2])
        incremental.add_batch(ROWS[2:])
        flattened = sorted(r for c in incremental.clusters() for r in c)
        assert flattened == list(range(len(ROWS)))

    def test_forest_unions_each_pair_once(self):
        incremental = IncrementalSnm(["title", "year"], [KEY], MATCHER, window=3)
        unioned = []
        union = incremental._forest.union

        def spy(left, right):
            unioned.append((left, right))
            return union(left, right)

        incremental._forest.union = spy
        rows = ROWS * 3
        for start in range(0, len(rows), 4):
            incremental.add_batch(rows[start:start + 4])
        clusters = incremental.clusters()
        assert sorted(unioned) == sorted(incremental.pairs)
        assert len(incremental.pairs) > 4
        scratch = UnionFind(range(len(rows)))
        for left, right in incremental.pairs:
            scratch.union(left, right)
        assert clusters == scratch.groups()
        incremental.clusters()
        assert len(unioned) == len(incremental.pairs)

    def test_empty_batch(self):
        incremental = IncrementalSnm(["title", "year"], [KEY], MATCHER)
        assert incremental.add_batch([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalSnm(["a"], [], MATCHER)
        with pytest.raises(ValueError):
            IncrementalSnm(["a"], [KEY], MATCHER, window=1)


class TestBaselines:
    def test_all_pairs_is_superset_of_snm(self):
        relation = build_relation(ROWS)
        exhaustive = all_pairs(relation, MATCHER)
        windowed = sorted_neighborhood(relation, [KEY], MATCHER, window=2)
        assert exhaustive.pairs >= windowed.pairs
        n = len(ROWS)
        assert exhaustive.comparisons == n * (n - 1) // 2

    def test_blocking_compares_within_blocks_only(self):
        relation = build_relation(ROWS)
        blocked = standard_blocking(relation, [KEY], MATCHER)
        exhaustive = all_pairs(relation, MATCHER)
        assert blocked.comparisons < exhaustive.comparisons
        assert (0, 1) in blocked.pairs  # identical keys share a block

    def test_blocking_requires_keys(self):
        with pytest.raises(ValueError):
            standard_blocking(build_relation(ROWS), [], MATCHER)

    def test_all_pairs_no_closure(self):
        result = all_pairs(build_relation(ROWS), MATCHER, closure=False)
        assert result.clusters == []
