"""The unified detection engine.

:class:`DetectionEngine` owns the SXNM workflow of Fig. 1 — key
generation, candidate traversal, neighborhood comparison, transitive
closure — and delegates each phase to a pluggable stage
(:mod:`repro.core.stages`):

* :class:`~repro.core.stages.KeySource` → GK tables,
* :class:`~repro.core.stages.NeighborhoodStrategy` → compared pairs,
* :class:`~repro.core.stages.DecisionPolicy` → pair classification,
* :class:`~repro.core.stages.ClosureStrategy` → cluster sets.

The historical detector classes (:class:`~repro.core.SxnmDetector`,
:class:`~repro.core.AdaptiveSxnmDetector`,
:class:`~repro.core.TopDownDetector`,
:class:`~repro.core.DogmatixDetector`,
:class:`~repro.core.IncrementalSxnm`) are thin wrappers that pick an
engine configuration; their results are bit-identical to their former
hand-rolled loops.

Instrumentation: attach :class:`~repro.core.observer.EngineObserver`
instances to stream run/phase/candidate/pass/pair events.  Without
observers the engine takes a fast path — comparisons invoke the raw
decision callable and only the coarse per-phase timers run, exactly as
the old detectors did.
"""

from __future__ import annotations

import os
import time

from ..config import SxnmConfig, ensure_valid
from ..errors import DetectionError
from ..similarity import ComparisonStats
from ..xmlmodel import XmlDocument
from .candidates import CandidateHierarchy
from .clusters import ClusterSet
from .index import corpus_checksum, run_signature
from .observer import (PHASE_CLOSURE, PHASE_KEY_GENERATION, PHASE_WINDOW,
                       EngineObserver, ObserverGroup)
from .results import (CandidateOutcome, KeySelection, SxnmResult,
                      select_key_indices)
from .stages import (CandidateContext, ClosureStrategy, Compare,
                     DecisionPolicy, DomKeySource, FixedWindowStrategy,
                     KeySource, NeighborhoodStrategy, ThresholdPolicy,
                     UnionFindClosure, TOP_DOWN)


class DetectionEngine:
    """One engine, four pluggable stages, optional instrumentation.

    Parameters
    ----------
    config:
        A valid :class:`~repro.config.SxnmConfig` (validated eagerly).
    key_source, neighborhood, decision, closure:
        The stage implementations; defaults reproduce the plain SXNM
        detector (DOM keygen, fixed multi-pass window, threshold gates,
        union-find closure).
    observers:
        :class:`EngineObserver` instances receiving engine events.
        More can be attached later with :meth:`add_observer`.
    use_index:
        Honor ``config.index_dir`` by persisting run state to a
        :class:`~repro.core.index.DetectionIndex`.  Wrappers that own
        the index themselves (:class:`~repro.core.IncrementalSxnm`)
        pass ``False`` so state is committed exactly once.
    """

    def __init__(self, config: SxnmConfig, *,
                 key_source: KeySource | None = None,
                 neighborhood: NeighborhoodStrategy | None = None,
                 decision: DecisionPolicy | None = None,
                 closure: ClosureStrategy | None = None,
                 observers: list[EngineObserver] | tuple = (),
                 use_index: bool = True):
        self.config = ensure_valid(config)
        self.use_index = use_index
        self.hierarchy = CandidateHierarchy(config)
        self.key_source = key_source if key_source is not None \
            else DomKeySource()
        self.neighborhood = neighborhood if neighborhood is not None \
            else FixedWindowStrategy()
        self.decision = decision if decision is not None else ThresholdPolicy()
        self.closure = closure if closure is not None else UnionFindClosure()
        self.observers: list[EngineObserver] = list(observers)
        self._phi_store = None
        self._index = None

    def add_observer(self, observer: EngineObserver) -> None:
        self.observers.append(observer)

    def remove_observer(self, observer: EngineObserver) -> None:
        self.observers.remove(observer)

    @property
    def order(self):
        """Candidate traversal order implied by the neighborhood stage."""
        if getattr(self.neighborhood, "traversal", None) == TOP_DOWN:
            return list(reversed(self.hierarchy.order))
        return list(self.hierarchy.order)

    def run(self, source: str | XmlDocument, window: int | None = None,
            key_selection: KeySelection = None,
            gk: dict | None = None,
            od_cache: dict[str, dict[tuple[int, int], float]] | None = None,
            resume: bool = False) -> SxnmResult:
        """Detect duplicates in ``source`` (XML text or parsed document).

        Parameters
        ----------
        window:
            Override the configured window sizes for every candidate.
        key_selection:
            ``None`` → all keys (multi-pass); an int or list of ints →
            only those key indices.  A candidate lacking every selected
            key falls back to its own keys (observers get a warning).
        gk:
            Precomputed GK tables for exactly this ``source`` — skips
            the key-generation stage entirely.
        od_cache:
            Mutable per-candidate cache of OD similarities, shared
            across runs with the same ``gk``.
        resume:
            Continue an interrupted run from the configured detection
            index: candidates whose state is committed restore their
            pairs/stats from disk (clusters rebuild canonically), only
            the rest are detected.  Raises
            :class:`~repro.errors.DetectionError` when no index is
            configured or its manifest does not match this run's
            config fingerprint, corpus checksum, or run parameters.
        """
        emit = ObserverGroup(self.observers) if self.observers else None
        if emit is not None:
            emit.run_started()

        phi_store = self._open_phi_store(emit)
        attach = getattr(self.decision, "attach_phi_spill", None)
        if attach is not None:
            attach(phi_store)
        if phi_store is not None and emit is not None:
            emit.cache_loaded(phi_store.directory, len(phi_store),
                              phi_store.segments_loaded)

        index = self._open_index(emit) if self.use_index else None
        if resume and index is None:
            raise DetectionError(
                "cannot resume: no detection index is configured "
                "(set indexDir / pass --index)")
        resuming = False
        if index is not None:
            corpus = corpus_checksum(source)
            params = run_signature(window, key_selection)
            if resume:
                if not index.usable:
                    raise DetectionError(
                        f"cannot resume: index directory "
                        f"{index.directory!r} is not usable")
                problems = index.resume_mismatch(self.config, corpus,
                                                 params)
                if problems:
                    raise DetectionError(
                        "refusing to resume from "
                        f"{index.directory!r}:\n  - "
                        + "\n  - ".join(problems))
                resuming = True
            else:
                index.begin_run(self.config, corpus, params)
            if emit is not None:
                emit.index_opened(index.directory, len(index.completed),
                                  len(index.manifest.get("segments", {})))

        if emit is not None:
            emit.phase_started(PHASE_KEY_GENERATION)

        # Spilling key sources want the index (for a durable spill
        # directory) and the warning sink before generation starts.
        attach_run = getattr(self.key_source, "attach_run_context", None)
        if attach_run is not None:
            attach_run(index=index,
                       warn=(emit.warning if emit is not None else None))

        kg_start = time.perf_counter()
        tables_from_index = False
        tables_from_spill = False
        if gk is not None:
            tables = gk
        else:
            tables = index.load_gk() if resuming else None
            tables_from_index = tables is not None
            if tables is None and resuming:
                restore = getattr(self.key_source, "restore_spilled", None)
                if restore is not None:
                    tables = restore(index, self.config, self.hierarchy)
                    tables_from_spill = tables is not None
            if tables is None:
                tables = self.key_source.generate(source, self.config,
                                                  self.hierarchy)
        tables_spilled = any(getattr(table, "spilled", False)
                             for table in tables.values())
        if tables_spilled and emit is not None and not tables_from_spill:
            for name, table in tables.items():
                if getattr(table, "spilled", False):
                    emit.run_spilled(name, len(table), table.run_count())
        if index is not None and index.usable and not tables_from_index \
                and not tables_from_spill:
            if tables_spilled:
                index.save_spill({name: table.state()
                                  for name, table in tables.items()
                                  if getattr(table, "spilled", False)})
            else:
                index.save_gk(tables)
        result = SxnmResult(gk=tables)
        result.timings.key_generation = time.perf_counter() - kg_start
        if emit is not None:
            emit.phase_finished(PHASE_KEY_GENERATION,
                                result.timings.key_generation)

        cluster_sets: dict[str, ClusterSet] = {}
        for node in self.order:
            spec = node.spec
            table = tables[spec.name]
            if emit is not None:
                emit.candidate_started(spec.name, len(table))

            restored = index.load_candidate(spec.name) if resuming \
                else None
            if restored is not None:
                # The committed pairs rebuild clusters canonically
                # (ClusterSet sorts), so descendant evidence for
                # later candidates is bit-identical to the
                # uninterrupted run.
                pairs = restored["pairs"]
                cluster_set = self.closure.close(spec.name, pairs,
                                                 table.eids())
                cluster_sets[spec.name] = cluster_set
                compare_stats = None
                if restored["stats"] is not None:
                    compare_stats = ComparisonStats.from_dict(
                        restored["stats"])
                outcome = CandidateOutcome(
                    name=spec.name, cluster_set=cluster_set,
                    pairs=pairs, comparisons=restored["comparisons"],
                    window_seconds=restored["window_seconds"],
                    closure_seconds=restored["closure_seconds"],
                    filtered_comparisons=restored["filtered"],
                    compare_stats=compare_stats)
                result.outcomes[spec.name] = outcome
                result.timings.window += outcome.window_seconds
                result.timings.closure += outcome.closure_seconds
                if emit is not None:
                    if compare_stats is not None:
                        emit.comparison_stats(spec.name, compare_stats)
                    emit.candidate_finished(spec.name, outcome)
                continue

            candidate_cache = None
            if od_cache is not None:
                candidate_cache = od_cache.setdefault(spec.name, {})
            decider = self.decision.decider(spec, self.config,
                                            cluster_sets, candidate_cache)
            if emit is not None:
                calibration = getattr(decider, "calibration", None)
                if calibration is not None:
                    emit.decision_calibrated(spec.name, calibration)
            filtered_before = decider.filtered_comparisons
            compare: Compare = decider.compare
            if emit is not None:
                compare = self._instrumented(spec.name, decider.compare,
                                             emit)

            key_indices = select_key_indices(
                table, key_selection,
                warn=emit.warning if emit is not None else None)
            effective_window = (window if window is not None
                                else self.config.effective_window(spec))
            pairs: set[tuple[int, int]] = set()
            ctx = CandidateContext(
                node=node, spec=spec, config=self.config, table=table,
                tables=tables, window=effective_window,
                key_indices=key_indices, compare=compare, pairs=pairs,
                cluster_sets=cluster_sets, emit=emit, decider=decider)

            if emit is not None:
                emit.phase_started(PHASE_WINDOW, spec.name)
            window_start = time.perf_counter()
            neighborhood = self.neighborhood.find_pairs(ctx)
            window_seconds = time.perf_counter() - window_start
            demote = getattr(decider, "demote_inconsistent", None)
            if demote is not None:
                # Three-way deciders resolve anti-transitive evidence
                # before closure: AUTO_DUP chains that would swallow
                # an AUTO_KEEP pair lose their weakest edge to REVIEW.
                for left_eid, right_eid, score in demote(pairs):
                    if emit is not None:
                        emit.pair_demoted(spec.name, left_eid,
                                          right_eid, score)
            if emit is not None:
                emit.phase_finished(PHASE_WINDOW, window_seconds,
                                    spec.name)
                emit.phase_started(PHASE_CLOSURE, spec.name)

            closure_start = time.perf_counter()
            cluster_set = self.closure.close(spec.name, pairs,
                                             table.eids())
            closure_seconds = time.perf_counter() - closure_start
            if emit is not None:
                emit.phase_finished(PHASE_CLOSURE, closure_seconds,
                                    spec.name)

            cluster_sets[spec.name] = cluster_set
            compare_stats = getattr(decider, "stats", None)
            outcome = CandidateOutcome(
                name=spec.name, cluster_set=cluster_set, pairs=pairs,
                comparisons=neighborhood.comparisons,
                window_seconds=window_seconds,
                closure_seconds=closure_seconds,
                filtered_comparisons=neighborhood.filtered
                + (decider.filtered_comparisons - filtered_before),
                compare_stats=compare_stats)
            result.outcomes[spec.name] = outcome
            result.timings.window += window_seconds
            result.timings.closure += closure_seconds
            if index is not None and index.usable:
                stats_dict = (compare_stats.as_dict()
                              if compare_stats is not None else None)
                committed = index.commit_candidate(
                    spec.name, pairs, neighborhood.comparisons,
                    outcome.filtered_comparisons, window_seconds,
                    closure_seconds, stats_dict)
                if committed and emit is not None:
                    emit.index_committed(index.directory, spec.name,
                                         len(pairs))
            if emit is not None:
                if compare_stats is not None:
                    emit.comparison_stats(spec.name, compare_stats)
                emit.candidate_finished(spec.name, outcome)

        if phi_store is not None:
            flushed = phi_store.flush()
            if emit is not None:
                emit.cache_flushed(phi_store.directory, flushed,
                                   phi_store.segments_written)
        if emit is not None:
            emit.run_finished(result)
        return result

    def _open_phi_store(self, emit: ObserverGroup | None):
        """The persistent φ spill store, opened once per engine.

        Active only when the config names a ``phi_cache_dir``, leaves
        ``phi_cache_persist`` on, and sizes the in-memory memo above
        zero (no memo → nothing to spill).  A damaged or unusable store
        warns through the observers and behaves as cold — persistence
        problems never fail a detection run.
        """
        config = self.config
        directory = getattr(config, "phi_cache_dir", None)
        if (not directory
                or not getattr(config, "phi_cache_persist", True)
                or getattr(config, "phi_cache_size", 0) <= 0):
            return None
        store = self._phi_store
        if store is None or store.directory != os.fspath(directory):
            from ..similarity.store import PersistentPhiCache
            store = PersistentPhiCache(directory)
            self._phi_store = store
        # Warnings from this run's loads/flushes reach this run's
        # observers; warnings already recorded at open time are replayed
        # below so late-attached observers still see them once.
        store.warn = emit.warning if emit is not None else None
        if not store._opened:
            store.open()
            self._phi_store_warned = store.warn is not None
        elif (emit is not None and store.warnings
                and not getattr(self, "_phi_store_warned", False)):
            # The store was opened on an unobserved run — deliver its
            # open-time warnings to the first observers that show up.
            for message in store.warnings:
                emit.warning(message)
            self._phi_store_warned = True
        return store

    def _open_index(self, emit: ObserverGroup | None):
        """The run's detection index, opened once per engine.

        Active only when the config names an ``index_dir`` and leaves
        ``index_persist`` on.  A damaged or unusable index warns
        through the observers and behaves as cold — persistence
        problems never fail a detection run (only an explicit
        ``resume`` refuses).
        """
        config = self.config
        directory = getattr(config, "index_dir", None)
        if not directory or not getattr(config, "index_persist", True):
            return None
        index = self._index
        if index is None or index.directory != os.fspath(directory):
            from .index import DetectionIndex
            index = DetectionIndex(directory)
            self._index = index
        # Same warning-replay discipline as the φ store above.
        index.warn = emit.warning if emit is not None else None
        if not index._opened:
            index.open()
            self._index_warned = index.warn is not None
        elif (emit is not None and index.warnings
                and not getattr(self, "_index_warned", False)):
            for message in index.warnings:
                emit.warning(message)
            self._index_warned = True
        return index

    @staticmethod
    def _instrumented(candidate: str, compare: Compare,
                      emit: ObserverGroup) -> Compare:
        """Wrap ``compare`` to stream pair events to observers."""
        def observed(left, right):
            verdict = compare(left, right)
            emit.pair_compared(candidate, left.eid, right.eid, verdict)
            if verdict.is_duplicate:
                emit.pair_confirmed(candidate, left.eid, right.eid)
            return verdict
        return observed
