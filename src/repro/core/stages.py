"""Pluggable stages of the detection engine.

The engine (:mod:`repro.core.engine`) owns the bottom-up traversal and
composes four swappable stage protocols, one per phase of the SXNM
workflow:

* :class:`KeySource` — where GK tables come from (DOM key generation,
  streaming key generation, or precomputed tables).
* :class:`NeighborhoodStrategy` — which candidate pairs get compared
  (fixed window, DE window, adaptive window, filtered all-pairs, or
  DELPHI-style parent-grouped top-down windows).
* :class:`DecisionPolicy` — how a compared pair is classified
  (similarity thresholds with gates/combined decisions and optional
  length/bag filters, equational theories, or OD-only for top-down).
* :class:`ClosureStrategy` — how confirmed pairs become cluster sets
  (union-find, the 2006-era quadratic algorithm, or a live union-find
  that persists across incremental batches).

Every concrete implementation delegates to the same kernels the original
detector variants used (:mod:`repro.core.window`,
:mod:`repro.core.simmeasure`, :class:`repro.core.clusters.ClusterSet`),
so an engine configured like an old detector produces bit-identical
pairs, clusters, and comparison counts.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..clustering import UnionFind
from ..config import CandidateSpec, SxnmConfig
from ..similarity import ComparisonPlan, PhiCache
from ..xmlmodel import XmlDocument, parse
from .candidates import CandidateHierarchy, CandidateNode
from .clusters import ClusterSet
from .gk import GkRow, GkTable
from .keygen import generate_gk, generate_gk_streaming
from .observer import ObserverGroup
from .simmeasure import Decision, PairVerdict, SimilarityMeasure
from .theory import XmlEquationalTheory
from .window import (adaptive_window_pass, compare_pairs, de_window_pairs,
                     window_pairs)

Compare = Callable[[GkRow, GkRow], PairVerdict]

BOTTOM_UP = "bottom_up"
TOP_DOWN = "top_down"


# ---------------------------------------------------------------------------
# Per-candidate context handed to neighborhood strategies


@dataclass
class CandidateContext:
    """Everything a neighborhood strategy may need for one candidate.

    ``compare`` is the classifier callable (possibly wrapped for
    per-pair observer events); ``decider`` is the underlying
    :class:`PairDecider` the decision policy built.
    """

    node: CandidateNode
    spec: CandidateSpec
    config: SxnmConfig
    table: GkTable
    tables: dict[str, GkTable]
    window: int
    key_indices: list[int]
    compare: Compare
    pairs: set[tuple[int, int]]
    cluster_sets: dict[str, ClusterSet]
    emit: ObserverGroup | None = None
    decider: PairDecider | None = None

    def pass_started(self, key_index: int) -> None:
        if self.emit is not None:
            self.emit.pass_started(self.spec.name, key_index)

    def pass_finished(self, key_index: int, comparisons: int) -> None:
        if self.emit is not None:
            self.emit.pass_finished(self.spec.name, key_index, comparisons)

    def pair_filtered(self, left_eid: int, right_eid: int) -> None:
        if self.emit is not None:
            self.emit.pair_filtered(self.spec.name, left_eid, right_eid)

    def warning(self, message: str) -> None:
        if self.emit is not None:
            self.emit.warning(message)

    def strategy_pairs_generated(self, strategy: str, generated: int,
                                 fresh: int) -> None:
        if self.emit is not None:
            hook = getattr(self.emit, "strategy_pairs_generated", None)
            if hook is not None:
                hook(self.spec.name, strategy, generated, fresh)


@dataclass
class NeighborhoodOutcome:
    """What a neighborhood pass over one candidate cost."""

    comparisons: int
    filtered: int = 0


def candidate_multipass(ctx: CandidateContext,
                        duplicate_elimination: bool = False,
                        sorted_rows: Callable[[int], Iterable[GkRow]]
                        | None = None) -> int:
    """One window (or DE) pass per selected key; returns comparisons.

    ``sorted_rows(key_index)`` gives the candidate's rows in
    ``(key, eid)`` order — :meth:`GkTable.sorted_by_key` by default, a
    re-iterable merged view for spilled tables (a DE pass walks it
    twice).  Passes run in key order and share ``ctx.pairs``, so a pair
    confirmed by an earlier pass is never compared again.
    """
    if sorted_rows is None:
        sorted_rows = ctx.table.sorted_by_key
    total = 0
    for key_index in ctx.key_indices:
        ctx.pass_started(key_index)
        rows = sorted_rows(key_index)
        if duplicate_elimination:
            candidates = de_window_pairs(rows, key_index, ctx.window)
        else:
            candidates = window_pairs(rows, ctx.window)
        comparisons = compare_pairs(candidates, ctx.compare, ctx.pairs)
        ctx.pass_finished(key_index, comparisons)
        total += comparisons
    return total


# ---------------------------------------------------------------------------
# KeySource — where GK tables come from


@runtime_checkable
class KeySource(Protocol):
    """Stage 1: produce the GK tables for a detection run."""

    def generate(self, source: str | XmlDocument, config: SxnmConfig,
                 hierarchy: CandidateHierarchy) -> dict[str, GkTable]:
        """GK tables for ``source`` (XML text or parsed document)."""
        ...


class DomKeySource:
    """Parse to a DOM, then run the two-phase key generator."""

    def generate(self, source, config, hierarchy):
        document = parse(source) if isinstance(source, str) else source
        return generate_gk(document, config, hierarchy)


class StreamingKeySource:
    """Single-pass streaming key generation for XML text.

    Non-text sources (already-parsed documents) fall back to the DOM
    generator; output is identical either way.
    """

    def generate(self, source, config, hierarchy):
        if isinstance(source, str):
            return generate_gk_streaming(source, config, hierarchy)
        return generate_gk(source, config, hierarchy)


class PrecomputedKeySource:
    """Serve GK tables computed earlier (skips the KG phase's work)."""

    def __init__(self, tables: dict[str, GkTable]):
        self.tables = tables

    def generate(self, source, config, hierarchy):
        return self.tables


# ---------------------------------------------------------------------------
# DecisionPolicy — how a compared pair is classified


class PairDecider(Protocol):
    """A configured classifier for one candidate's pairs."""

    filtered_comparisons: int

    def compare(self, left: GkRow, right: GkRow) -> PairVerdict:
        ...


@runtime_checkable
class DecisionPolicy(Protocol):
    """Stage 3: build the per-candidate pair classifier."""

    def decider(self, spec: CandidateSpec, config: SxnmConfig,
                cluster_sets: dict[str, ClusterSet],
                od_cache: dict[tuple[int, int], float] | None) -> PairDecider:
        ...


class _SharedPhiCache:
    """Mixin: one φ memo cache per policy, sized from the config.

    Deciders are built per candidate per run, but φ scores depend only
    on ``(phi_name, left, right)`` — sharing the cache across candidates
    and runs is always sound (only exact values are stored).

    The engine may attach a persistent spill store
    (:meth:`attach_phi_spill`); the cache then consults it on LRU
    misses and queues new exact scores for the end-of-run flush.
    """

    _phi_cache_instance: PhiCache | None = None
    _phi_spill = None

    def phi_cache(self, config: SxnmConfig) -> PhiCache | None:
        size = getattr(config, "phi_cache_size", 0)
        if size <= 0:
            return None
        cache = self._phi_cache_instance
        if cache is None or cache.maxsize != size:
            cache = PhiCache(size, spill=self._phi_spill)
            self._phi_cache_instance = cache
        elif cache.spill is not self._phi_spill:
            cache.spill = self._phi_spill
        return cache

    def attach_phi_spill(self, store) -> None:
        """Attach (or with ``None``, detach) the persistent spill layer."""
        self._phi_spill = store
        cache = self._phi_cache_instance
        if cache is not None:
            cache.spill = store


class ThresholdPolicy(_SharedPhiCache):
    """The paper's threshold decision (Defs. 2 and 3).

    ``decision`` selects independent OD/descendants gates or the single
    combined threshold; ``use_filters`` arms the comparison plane's
    pruning layers — per-string filter bounds and weighted-sum
    upper-bound aborts — before the expensive edit distances (sound
    under "gates" only).  ``None`` defers to ``config.use_filters``.
    """

    def __init__(self, decision: Decision = "gates",
                 use_filters: bool | None = None):
        self.decision: Decision = decision
        self.use_filters = use_filters

    def decider(self, spec, config, cluster_sets, od_cache):
        use_filters = (self.use_filters if self.use_filters is not None
                       else getattr(config, "use_filters", False))
        return SimilarityMeasure(spec, config, cluster_sets,
                                 decision=self.decision, od_cache=od_cache,
                                 use_filters=use_filters,
                                 phi_cache=self.phi_cache(config))


class _TheoryDecider:
    """Classify via an equational theory; similarity layers unset."""

    def __init__(self, theory: XmlEquationalTheory, spec: CandidateSpec,
                 cluster_sets: dict[str, ClusterSet]):
        self.theory = theory
        self.spec = spec
        self.cluster_sets = cluster_sets
        self.filtered_comparisons = 0

    def compare(self, left: GkRow, right: GkRow) -> PairVerdict:
        is_duplicate = self.theory.decide(left, right, self.spec,
                                          self.cluster_sets)
        return PairVerdict(0.0, None, 0.0, is_duplicate)


class TheoryPolicy:
    """Per-candidate equational theories over a base policy.

    Candidates named in ``theories`` are classified by their theory;
    all others fall through to ``base`` (thresholds by default).
    """

    def __init__(self, theories: dict[str, XmlEquationalTheory],
                 base: DecisionPolicy | None = None):
        self.theories = dict(theories)
        self.base = base if base is not None else ThresholdPolicy()

    def decider(self, spec, config, cluster_sets, od_cache):
        theory = self.theories.get(spec.name)
        if theory is None:
            return self.base.decider(spec, config, cluster_sets, od_cache)
        return _TheoryDecider(theory, spec, cluster_sets)

    def attach_phi_spill(self, store) -> None:
        attach = getattr(self.base, "attach_phi_spill", None)
        if attach is not None:
            attach(store)


def od_only_spec(spec: CandidateSpec) -> CandidateSpec:
    """A shallow copy of ``spec`` with descendant usage disabled."""
    clone = copy.copy(spec)
    clone.use_descendants = False
    return clone


class OdOnlyPolicy(_SharedPhiCache):
    """Classify on object descriptions alone (no descendant evidence).

    Top-down traversals use this: when ancestors are processed first, no
    descendant cluster sets exist yet.
    """

    def decider(self, spec, config, cluster_sets, od_cache):
        return SimilarityMeasure(od_only_spec(spec), config, cluster_sets={},
                                 decision="gates", od_cache=od_cache,
                                 phi_cache=self.phi_cache(config))


# ---------------------------------------------------------------------------
# NeighborhoodStrategy — which pairs get compared


@runtime_checkable
class NeighborhoodStrategy(Protocol):
    """Stage 2: enumerate and compare candidate pairs.

    ``traversal`` tells the engine which way to walk the candidate
    hierarchy (``"bottom_up"`` for SXNM, ``"top_down"`` for
    DELPHI-style pruning).
    """

    traversal: str

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        """Fill ``ctx.pairs`` with confirmed duplicates; report costs."""
        ...


class FixedWindowStrategy:
    """The paper's sorted multi-pass window (optionally DE-SNM style).

    One pass per selected key (:func:`candidate_multipass`);
    ``duplicate_elimination`` switches each pass to the DE variant where
    equal-key groups are confirmed against an anchor and only
    representatives enter the window.
    """

    traversal = BOTTOM_UP

    def __init__(self, duplicate_elimination: bool = False):
        self.duplicate_elimination = duplicate_elimination

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        return NeighborhoodOutcome(
            candidate_multipass(ctx, self.duplicate_elimination))


class AdaptiveWindowStrategy:
    """Adaptive neighborhoods (paper Sec. 5 outlook, Lehti & Fankhauser).

    The window around each record extends while consecutive sort keys
    stay at least ``key_similarity_floor``-similar, between
    ``min_window`` and ``max_window``.  Ignores the fixed window size.
    """

    traversal = BOTTOM_UP

    def __init__(self, min_window: int = 2, max_window: int = 20,
                 key_similarity_floor: float = 0.6):
        if not 2 <= min_window <= max_window:
            raise ValueError("need 2 <= min_window <= max_window")
        self.min_window = min_window
        self.max_window = max_window
        self.key_similarity_floor = key_similarity_floor

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        total = 0
        for key_index in ctx.key_indices:
            ctx.pass_started(key_index)
            comparisons = adaptive_window_pass(
                ctx.table, key_index, ctx.compare, ctx.pairs,
                min_window=self.min_window, max_window=self.max_window,
                key_similarity_floor=self.key_similarity_floor)
            ctx.pass_finished(key_index, comparisons)
            total += comparisons
        return NeighborhoodOutcome(total)


class AllPairsStrategy:
    """DogmatiX-style filtered all-pairs comparison (quadratic worst case).

    With ``use_filters`` each pair is first pruned by the cheap
    OD-similarity upper bound against the candidate's OD threshold;
    pruned pairs count as ``filtered``, not as comparisons.
    """

    traversal = BOTTOM_UP

    def __init__(self, use_filters: bool = True):
        self.use_filters = use_filters

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        od_threshold = ctx.config.effective_od_threshold(ctx.spec)
        # Compiled once per candidate; upper_bound() is bit-identical to
        # the historical per-pair od_similarity_upper_bound calls.
        plan = ComparisonPlan.from_od_items(ctx.spec.od_items())
        rows = list(ctx.table)
        comparisons = 0
        filtered = 0
        for i, left in enumerate(rows):
            for right in rows[i + 1:]:
                if self.use_filters:
                    bound = plan.upper_bound(left.ods, right.ods)
                    if bound < od_threshold:
                        filtered += 1
                        ctx.pair_filtered(min(left.eid, right.eid),
                                          max(left.eid, right.eid))
                        continue
                comparisons += 1
                if ctx.compare(left, right).is_duplicate:
                    ctx.pairs.add((min(left.eid, right.eid),
                                   max(left.eid, right.eid)))
        return NeighborhoodOutcome(comparisons, filtered)


class ParentGroupedStrategy:
    """DELPHI-style top-down windows within parent clusters.

    Root candidates form one global group; a child candidate's instances
    are windowed *within* the groups induced by their parents' clusters
    — only children under duplicate (or identical) ancestors are
    compared.  Misses duplicates across M:N parent-child relationships,
    which is exactly what the ablation quantifies.
    """

    traversal = TOP_DOWN

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        comparisons = 0
        for key_index in ctx.key_indices:
            ctx.pass_started(key_index)
            before = comparisons
            for group in self._groups(ctx):
                comparisons += self._windowed_group(ctx, group, key_index)
            ctx.pass_finished(key_index, comparisons - before)
        return NeighborhoodOutcome(comparisons)

    def _groups(self, ctx: CandidateContext) -> list[list[int]]:
        node = ctx.node
        if node.parent is None or node.parent.name not in ctx.cluster_sets:
            return [ctx.table.eids()]
        parent_table = ctx.tables[node.parent.name]
        parent_clusters = ctx.cluster_sets[node.parent.name]
        groups: dict[int, list[int]] = {}
        for parent_row in parent_table:
            for child_eid in parent_row.children.get(node.name, []):
                cid = parent_clusters.cid(parent_row.eid)
                groups.setdefault(cid, []).append(child_eid)
        grouped = [sorted(eids) for eids in groups.values()]
        # Children not reachable from any parent instance (should not
        # happen with consistent paths) still need clustering.
        seen = {eid for group in grouped for eid in group}
        orphans = [eid for eid in ctx.table.eids() if eid not in seen]
        if orphans:
            grouped.append(orphans)
        return grouped

    def _windowed_group(self, ctx: CandidateContext, eids: list[int],
                        key_index: int) -> int:
        rows = [ctx.table.row(eid) for eid in eids]
        ordered = sorted(rows, key=lambda row: (row.keys[key_index], row.eid))
        # Groups share ctx.pairs sequentially: a pair confirmed in an
        # earlier group is skipped, not compared again.
        return compare_pairs(window_pairs(ordered, ctx.window), ctx.compare,
                             ctx.pairs)


# ---------------------------------------------------------------------------
# ClosureStrategy — how confirmed pairs become cluster sets


@runtime_checkable
class ClosureStrategy(Protocol):
    """Stage 4: transitive closure over the confirmed pairs."""

    def close(self, candidate_name: str, pairs: set[tuple[int, int]],
              universe: list[int]) -> ClusterSet:
        ...


class UnionFindClosure:
    """Near-linear closure via a union-find forest (the modern default)."""

    def close(self, candidate_name, pairs, universe):
        return ClusterSet.from_pairs(candidate_name, pairs, universe,
                                     method="union_find")


class QuadraticClosure:
    """The 2006-era repeated-merge closure (reproduces Fig. 5 TC curves)."""

    def close(self, candidate_name, pairs, universe):
        return ClusterSet.from_pairs(candidate_name, pairs, universe,
                                     method="quadratic")


class MethodClosure:
    """Closure selected by name at call time — preserves the historical
    late ``ValueError`` for unknown methods."""

    def __init__(self, method: str):
        self.method = method

    def close(self, candidate_name, pairs, universe):
        return ClusterSet.from_pairs(candidate_name, pairs, universe,
                                     method=self.method)


class LiveClosure:
    """Persistent union-find closure for incremental batch detection.

    Forests survive across runs: each ``close`` call registers the
    current universe, unions the confirmed pairs, and snapshots the
    partition.  ``forest(name)`` exposes the live state.
    """

    def __init__(self):
        self._forests: dict[str, UnionFind] = {}

    def forest(self, candidate_name: str) -> UnionFind:
        return self._forests.setdefault(candidate_name, UnionFind())

    def close(self, candidate_name, pairs, universe):
        forest = self.forest(candidate_name)
        for eid in universe:
            forest.add(eid)
        for left, right in pairs:
            forest.union(left, right)
        return ClusterSet(candidate_name, forest.groups())


@dataclass
class EngineStages:
    """A named bundle of the four stages (one engine configuration)."""

    key_source: KeySource = field(default_factory=DomKeySource)
    neighborhood: NeighborhoodStrategy = field(
        default_factory=FixedWindowStrategy)
    decision: DecisionPolicy = field(default_factory=ThresholdPolicy)
    closure: ClosureStrategy = field(default_factory=UnionFindClosure)
