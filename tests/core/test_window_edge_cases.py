"""Edge-case tests for the window engine and detector options."""

import pytest

from repro.config import CandidateSpec, SxnmConfig
from repro.core import (GkRow, GkTable, PairVerdict, SxnmDetector,
                        adaptive_window_pass, compare_pairs, de_window_pass,
                        key_similarity, keys_similar, multipass, window_pairs,
                        window_pass)
from repro.xmlmodel import parse


def table_with(keys_per_row):
    table = GkTable("x", key_count=len(keys_per_row[0]), od_count=0)
    for eid, keys in enumerate(keys_per_row):
        table.add(GkRow(eid, list(keys), []))
    return table


def always_duplicate(left, right):
    return PairVerdict(1.0, None, 1.0, True)


def never_duplicate(left, right):
    return PairVerdict(0.0, None, 0.0, False)


class TestWindowPass:
    def test_empty_table(self):
        pairs: set = set()
        assert window_pass(table_with([["A"]][:0] or [["A"]]), 0, 2,
                           never_duplicate, pairs) in (0, 0)

    def test_zero_rows(self):
        table = GkTable("x", key_count=1, od_count=0)
        pairs: set = set()
        assert window_pass(table, 0, 3, always_duplicate, pairs) == 0
        assert pairs == set()

    def test_single_row_no_comparisons(self):
        pairs: set = set()
        assert window_pass(table_with([["A"]]), 0, 5, always_duplicate,
                           pairs) == 0

    def test_window_larger_than_table_degenerates_to_all_pairs(self):
        table = table_with([["A"], ["B"], ["C"], ["D"]])
        pairs: set = set()
        comparisons = window_pass(table, 0, 100, always_duplicate, pairs)
        assert comparisons == 6
        assert len(pairs) == 6

    def test_comparison_count_formula(self):
        n, w = 10, 4
        table = table_with([[f"K{i:02d}"] for i in range(n)])
        pairs: set = set()
        comparisons = window_pass(table, 0, w, never_duplicate, pairs)
        assert comparisons == (w - 1) * n - (w - 1) * w // 2

    def test_skip_known_avoids_recomparison(self):
        table = table_with([["A", "X"], ["A", "X"], ["B", "Y"]])
        pairs: set = set()
        first = window_pass(table, 0, 3, always_duplicate, pairs)
        # Second pass: all pairs already known -> zero comparisons.
        second = window_pass(table, 1, 3, always_duplicate, pairs)
        assert first == 3
        assert second == 0

    def test_skip_known_disabled(self):
        table = table_with([["A", "X"], ["A", "X"]])
        pairs: set = set()
        window_pass(table, 0, 2, always_duplicate, pairs)
        comparisons = window_pass(table, 1, 2, always_duplicate, pairs,
                                  skip_known=False)
        assert comparisons == 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            window_pass(table_with([["A"]]), 0, 1, always_duplicate, set())


class TestMultipass:
    def test_unions_across_keys(self):
        # Key 0 separates rows 0/2; key 1 brings them adjacent.
        table = table_with([["A", "M"], ["M", "Z"], ["Z", "M"]])
        pairs, comparisons = multipass(table, 2, always_duplicate)
        assert (0, 2) in pairs
        assert comparisons >= 2

    def test_key_indices_subset(self):
        table = table_with([["A", "Z"], ["B", "A"]])
        pairs, _ = multipass(table, 2, always_duplicate, key_indices=[1])
        assert pairs == {(0, 1)}

    def test_empty_key_indices_runs_nothing(self):
        table = table_with([["A"], ["B"]])
        pairs, comparisons = multipass(table, 2, always_duplicate,
                                       key_indices=[])
        assert pairs == set()
        assert comparisons == 0


class TestDeWindowPassEmptyKeys:
    def test_empty_keys_are_unique(self):
        """Rows with empty keys are not a group: each enters the window
        individually and none is compared against an arbitrary anchor."""
        table = table_with([[""], [""], [""]])
        pairs: set = set()
        comparisons = de_window_pass(table, 0, 3, always_duplicate, pairs)
        # All three rows are in the window together: 3 windowed
        # comparisons, no anchor comparisons.
        assert comparisons == 3
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_empty_keys_outside_window_stay_apart(self):
        # Pre-fix, all empty keys collapsed behind one representative and
        # were anchor-compared regardless of distance; now the window
        # governs them like any other unique key.
        table = table_with([[""]] * 4)
        pairs: set = set()
        de_window_pass(table, 0, 2, never_duplicate, pairs)
        assert pairs == set()

    def test_non_empty_groups_still_collapse(self):
        table = table_with([["a"], [""], ["a"], [""], ["b"]])
        pairs: set = set()
        comparisons = de_window_pass(table, 0, 2, always_duplicate, pairs)
        # "a" group: 1 anchor comparison; window over the 4 remaining
        # entries ("", "", "a"-rep, "b"): 3 adjacent comparisons.
        assert (0, 2) in pairs
        assert comparisons == 4

    def test_matches_plain_window_when_all_keys_empty(self):
        table = table_with([[""]] * 6)
        de_pairs: set = set()
        plain_pairs: set = set()
        de = de_window_pass(table, 0, 4, always_duplicate, de_pairs)
        plain = window_pass(table, 0, 4, always_duplicate, plain_pairs)
        assert de_pairs == plain_pairs
        assert de == plain


class TestBoundedKeySimilarity:
    FLOORS = [0.0, 0.3, 0.5, 0.6, 0.8, 1.0]
    KEYS = ["", "a", "ab", "abc", "abd", "xbc", "abcdef", "fedcba",
            "ALPHA", "ALPHB", "totally different"]

    def test_decision_matches_full_dp(self):
        for floor in self.FLOORS:
            for left in self.KEYS:
                for right in self.KEYS:
                    assert keys_similar(left, right, floor) \
                        == (key_similarity(left, right) >= floor), \
                        (left, right, floor)

    def test_adaptive_pass_unchanged_by_bounded_path(self):
        """The adaptive pass (routed through the filtered edit path)
        makes exactly the comparisons the full floor check implied."""
        table = table_with([["abcd"], ["abce"], ["abzz"], ["qrst"],
                            ["qrsu"], ["zzzz"]])
        pairs: set = set()
        comparisons = adaptive_window_pass(table, 0, always_duplicate, pairs,
                                           min_window=2, max_window=5,
                                           key_similarity_floor=0.6)
        reference_pairs: set = set()
        reference = 0
        ordered = table.sorted_by_key(0)
        for index, row in enumerate(ordered):
            reach = 1
            while reach < 5 and index - reach >= 0:
                if reach >= 1:
                    predecessor = ordered[index - reach]
                    if key_similarity(predecessor.keys[0],
                                      row.keys[0]) < 0.6:
                        break
                reach += 1
            for other_index in range(max(0, index - reach + 1), index):
                other = ordered[other_index]
                pair = (min(other.eid, row.eid), max(other.eid, row.eid))
                if pair in reference_pairs:
                    continue
                reference += 1
                if always_duplicate(other, row).is_duplicate:
                    reference_pairs.add(pair)
        assert pairs == reference_pairs
        assert comparisons == reference


class TestDetectorOptions:
    XML = """
    <db><movies>
      <movie><title>Alpha Beta</title></movie>
      <movie><title>Alpha Betta</title></movie>
      <movie><title>Gamma Delta</title></movie>
    </movies></db>
    """

    def config(self):
        config = SxnmConfig(window_size=5, od_threshold=0.8,
                            duplicate_threshold=0.8)
        config.add(CandidateSpec.build(
            "movie", "db/movies/movie",
            od=[("title/text()", 1.0)],
            keys=[[("title/text()", "K1-K4")],
                  [("title/text()", "W1,W2")]]))
        return config

    def test_combined_decision_end_to_end(self):
        result = SxnmDetector(self.config(),
                              decision="combined").run(self.XML)
        assert len(result.cluster_set("movie").duplicate_clusters()) == 1

    def test_key_selection_list(self):
        detector = SxnmDetector(self.config())
        both = detector.run(self.XML, key_selection=[0, 1])
        multi = detector.run(self.XML)
        assert both.pairs("movie") == multi.pairs("movie")

    def test_out_of_range_selection_falls_back(self):
        detector = SxnmDetector(self.config())
        result = detector.run(self.XML, key_selection=[7])
        # Falls back to all keys rather than skipping the candidate.
        assert len(result.cluster_set("movie").members()) == 3

    def test_gk_reuse_with_parsed_document(self):
        detector = SxnmDetector(self.config())
        document = parse(self.XML)
        first = detector.run(document)
        second = detector.run(document, gk=first.gk)
        assert second.pairs("movie") == first.pairs("movie")
        assert second.timings.key_generation < first.timings.key_generation + 1


class TestWindowStartHelper:
    """Where each anchor's window starts: boundaries of the one kernel."""

    def test_pairs_are_predecessor_anchor_oldest_first(self):
        assert list(window_pairs("abcd", 3)) == [
            ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            list(window_pairs([], 1))

    def test_window_larger_than_rows(self):
        # A window exceeding the row count degenerates to all-pairs.
        table = table_with([["A"], ["B"], ["C"]])
        pairs: set = set()
        assert window_pass(table, 0, 10, always_duplicate, pairs) == 3
        assert len(pairs) == 3  # C(3, 2)

    def test_empty_key_selection(self):
        table = table_with([["A"], ["B"]])
        pairs, comparisons = multipass(table, 3, always_duplicate,
                                       key_indices=[])
        assert pairs == set() and comparisons == 0

    def test_skip_known_is_checked_as_pairs_are_pulled(self):
        # A pair confirmed earlier in the same candidate stream is
        # skipped when it comes round again.
        table = table_with([["A"], ["B"]])
        a, b = table.sorted_by_key(0)
        pairs: set = set()
        count = compare_pairs([(a, b), (b, a)], always_duplicate, pairs)
        assert count == 1 and pairs == {(a.eid, b.eid)}
        assert compare_pairs([(a, b), (b, a)], always_duplicate, set(),
                             skip_known=False) == 2
