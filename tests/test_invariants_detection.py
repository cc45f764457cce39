"""Cross-cutting detection invariants on randomized corpora (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CandidateSpec, SxnmConfig
from repro.core import SxnmDetector
from repro.relational import (FieldRule, Relation, RelationalKey,
                              WeightedFieldMatcher, all_pairs,
                              sorted_neighborhood)
from repro.xmlmodel import XmlDocument, XmlElement
from tests.conftest import budget

title_strategy = st.text(alphabet=string.ascii_letters + " ", min_size=1,
                         max_size=16)
titles_strategy = st.lists(title_strategy, min_size=2, max_size=14)
window_strategy = st.integers(2, 8)


def build_document(titles):
    root = XmlElement("db")
    items = root.make_child("items")
    for title in titles:
        items.make_child("item").make_child("t", text=title)
    document = XmlDocument(root)
    document.assign_eids()
    return document


def config(threshold=0.7):
    cfg = SxnmConfig(window_size=4, od_threshold=threshold)
    cfg.add(CandidateSpec.build(
        "item", "db/items/item",
        od=[("t/text()", 1.0)],
        keys=[[("t/text()", "C1-C4")], [("t/text()", "K1-K3")]]))
    return cfg


class TestDetectionInvariants:
    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_window_pairs_subset_of_all_pairs(self, titles, window):
        document = build_document(titles)
        detector = SxnmDetector(config())
        windowed = detector.run(document, window=window)
        exhaustive = detector.run(document, window=10_000)
        assert windowed.pairs("item") <= exhaustive.pairs("item")

    @given(titles=titles_strategy, small=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_multipass_superset_of_single_pass(self, titles, small):
        document = build_document(titles)
        detector = SxnmDetector(config())
        multi = detector.run(document, window=small)
        for key_index in (0, 1):
            single = detector.run(document, window=small,
                                  key_selection=key_index, gk=multi.gk)
            assert single.pairs("item") <= multi.pairs("item")

    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_cluster_sets_partition_instances(self, titles, window):
        document = build_document(titles)
        result = SxnmDetector(config()).run(document, window=window)
        cluster_set = result.cluster_set("item")
        members = sorted(eid for cluster in cluster_set for eid in cluster)
        table_eids = sorted(result.gk["item"].eids())
        assert members == table_eids

    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(40), deadline=None)
    def test_filters_never_change_pairs(self, titles, window):
        document = build_document(titles)
        plain = SxnmDetector(config()).run(document, window=window)
        filtered = SxnmDetector(config(), use_filters=True).run(
            document, window=window)
        assert plain.pairs("item") == filtered.pairs("item")

    @given(titles=titles_strategy, window=window_strategy,
           low=st.floats(0.3, 0.6), delta=st.floats(0.05, 0.3))
    @settings(max_examples=budget(40), deadline=None)
    def test_threshold_monotonicity(self, titles, window, low, delta):
        """Raising the OD threshold can only remove detected pairs."""
        document = build_document(titles)
        loose = SxnmDetector(config(low)).run(document, window=window)
        strict = SxnmDetector(config(min(1.0, low + delta))).run(
            document, window=window, gk=loose.gk)
        assert strict.pairs("item") <= loose.pairs("item")


class TestRelationalInvariants:
    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_snm_subset_of_all_pairs(self, titles, window):
        relation = Relation(["t"])
        relation.extend([{"t": title} for title in titles])
        key = RelationalKey.create([("t", "C1-C4")])
        matcher = WeightedFieldMatcher([FieldRule("t", 1.0)], threshold=0.7)
        snm = sorted_neighborhood(relation, [key], matcher, window=window)
        exhaustive = all_pairs(relation, matcher)
        assert snm.pairs <= exhaustive.pairs
        assert snm.comparisons <= exhaustive.comparisons
