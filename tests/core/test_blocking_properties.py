"""Hypothesis properties of the blocking/LSH candidate generators.

The concrete battery (``test_blocking``) pins behaviour on hand-built
corpora; this suite sweeps the *claims themselves* across random GK
tables and random documents:

* the union's proposal set is exactly the union of its members' pair
  sets (and a superset of each), every pair normalized ``left < right``;
* after a full detection run the per-strategy ``compared`` counters sum
  exactly to the pass's total comparisons and every fresh proposal is
  compared exactly once (``compared == fresh``);
* MinHash/LSH generation is bit-identical for a fixed seed and
  invariant to document (row) order;
* a union whose only member is the window is bit-identical to the
  plain window detector — pairs, comparisons, and clusters.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CandidateSpec, SxnmConfig
from repro.core import SxnmDetector
from repro.core.blocking import (CompositeFieldBlock, ExactKeyBlock,
                                 MinHashLshStrategy, UnionStrategy,
                                 WindowMember)
from repro.core.gk import GkRow, GkTable
from repro.xmlmodel import XmlDocument, XmlElement
from tests.conftest import budget

key_text = st.text(alphabet=string.ascii_lowercase + string.digits,
                   max_size=8)
od_text = st.one_of(
    st.none(),
    st.text(alphabet=string.ascii_lowercase + " ", max_size=12))


@st.composite
def gk_tables(draw):
    """A random 2-key / 2-OD GK table with 2-16 rows."""
    count = draw(st.integers(min_value=2, max_value=16))
    table = GkTable("item", key_count=2, od_count=2)
    for eid in range(1, count + 1):
        table.add(GkRow(eid,
                        keys=[draw(key_text), draw(key_text)],
                        ods=[draw(od_text), draw(od_text)]))
    return table


class StubContext:
    """The slice of CandidateContext the generators actually touch."""

    def __init__(self, table, window=4, key_indices=(0, 1)):
        self.table = table
        self.window = window
        self.key_indices = list(key_indices)
        self.warnings = []
        self.events = []

    def warning(self, message):
        self.warnings.append(message)

    def strategy_pairs_generated(self, strategy, generated, fresh):
        self.events.append((strategy, generated, fresh))


def all_members():
    return [WindowMember(),
            ExactKeyBlock(),
            CompositeFieldBlock(fields="1,0:4"),
            MinHashLshStrategy(hashes=16, bands=4, seed=7)]


title_strategy = st.text(alphabet=string.ascii_letters + " ", min_size=1,
                         max_size=16)
titles_strategy = st.lists(title_strategy, min_size=2, max_size=12)
window_strategy = st.integers(2, 6)


def build_document(titles):
    root = XmlElement("db")
    items = root.make_child("items")
    for title in titles:
        items.make_child("item").make_child("t", text=title)
    document = XmlDocument(root)
    document.assign_eids()
    return document


def item_config():
    cfg = SxnmConfig(window_size=4, od_threshold=0.7)
    cfg.add(CandidateSpec.build(
        "item", "db/items/item",
        od=[("t/text()", 1.0)],
        keys=[[("t/text()", "C1-C4")], [("t/text()", "K1-K3")]]))
    return cfg


class TestProposalProperties:

    @given(table=gk_tables(), window=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_union_is_exactly_the_member_union(self, table, window):
        members = all_members()
        ctx = StubContext(table, window=window)
        proposed, owners, counters = UnionStrategy(members).propose(ctx)

        member_union = set()
        for member in members:
            pairs = member.generate(ctx).pairs
            member_union |= pairs
            assert proposed >= pairs
            assert counters[member.name]["generated"] == len(pairs)
        assert proposed == member_union
        assert set(owners) == proposed
        for left, right in proposed:
            assert left < right
        assert sum(slot["fresh"] for slot in counters.values()) \
            == len(proposed)

    @given(table=gk_tables(), window=window_strategy)
    @settings(max_examples=budget(60), deadline=None)
    def test_owner_is_the_first_proposer(self, table, window):
        members = all_members()
        ctx = StubContext(table, window=window)
        proposed, owners, _ = UnionStrategy(members).propose(ctx)
        seen = set()
        for member in members:
            pairs = member.generate(ctx).pairs
            for pair in pairs - seen:
                assert owners[pair] == member.name
            seen |= pairs


class TestMinHashProperties:

    @given(table=gk_tables(), seed=st.integers(0, 1000))
    @settings(max_examples=budget(40), deadline=None)
    def test_fixed_seed_is_bit_identical(self, table, seed):
        first = MinHashLshStrategy(hashes=16, bands=4, seed=seed)
        second = MinHashLshStrategy(hashes=16, bands=4, seed=seed)
        ctx = StubContext(table)
        assert first.generate(ctx).pairs == second.generate(ctx).pairs
        for row in table:
            tokens = first.row_tokens(row)
            assert first.signature(tokens) == second.signature(tokens)

    @given(table=gk_tables(), seed=st.integers(0, 1000),
           shuffle_seed=st.integers(0, 1000))
    @settings(max_examples=budget(40), deadline=None)
    def test_invariant_to_document_order(self, table, seed, shuffle_seed):
        import random as random_module
        rows = list(table)
        random_module.Random(shuffle_seed).shuffle(rows)
        shuffled = GkTable(table.candidate_name, table.key_count,
                           table.od_count)
        for row in rows:
            shuffled.add(row)
        strategy = MinHashLshStrategy(hashes=16, bands=4, seed=seed)
        assert strategy.generate(StubContext(table)).pairs \
            == strategy.generate(StubContext(shuffled)).pairs


class TestDetectorProperties:

    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(25), deadline=None)
    def test_compared_counters_sum_to_total_comparisons(self, titles,
                                                        window):
        detector = SxnmDetector(
            item_config(),
            strategies=["window", "exact-key", "composite:fields=0:3",
                        "minhash-lsh:hashes=16,bands=4,seed=3"])
        outcome = detector.run(build_document(titles),
                               window=window).outcomes["item"]
        counters = outcome.compare_stats.strategy_counters
        assert sum(slot["compared"] for slot in counters.values()) \
            == outcome.comparisons
        # Dedup before comparison: every fresh proposal is compared
        # exactly once, and nothing else is.
        for slot in counters.values():
            assert slot["compared"] == slot["fresh"]
            assert 0 <= slot["duplicates"] <= slot["compared"]
            assert slot["fresh"] <= slot["generated"]

    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(25), deadline=None)
    def test_window_only_union_is_bit_identical(self, titles, window):
        document = build_document(titles)
        plain = SxnmDetector(item_config()).run(document, window=window)
        union = SxnmDetector(item_config(), strategies=["window"]).run(
            document, window=window)
        assert union.pairs("item") == plain.pairs("item")
        assert union.outcomes["item"].comparisons \
            == plain.outcomes["item"].comparisons
        assert union.outcomes["item"].cluster_set.duplicate_clusters() \
            == plain.outcomes["item"].cluster_set.duplicate_clusters()

    @given(titles=titles_strategy, window=window_strategy)
    @settings(max_examples=budget(25), deadline=None)
    def test_union_pairs_superset_of_window_pairs(self, titles, window):
        document = build_document(titles)
        plain = SxnmDetector(item_config()).run(document, window=window)
        union = SxnmDetector(
            item_config(),
            strategies=["window", "exact-key",
                        "minhash-lsh:hashes=16,bands=8,seed=3"]).run(
            document, window=window)
        assert union.pairs("item") >= plain.pairs("item")
