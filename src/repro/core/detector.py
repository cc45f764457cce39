"""The SXNM orchestrator: both phases end to end.

:class:`SxnmDetector` is the classic front door to the paper's workflow
(Fig. 1): candidate hierarchy, key generation, sliding-window
multi-pass, similarity measure, and transitive closure, traversed
bottom-up.  Since the engine refactor it is a thin wrapper that picks a
:class:`~repro.core.engine.DetectionEngine` configuration — results are
bit-identical to the historical hand-rolled loop.  Phase timings (KG,
SW, TC — with DD = SW + TC) match the paper's scalability experiments.

The result types (:class:`PhaseTimings`, :class:`CandidateOutcome`,
:class:`SxnmResult`) live in :mod:`repro.core.results` and are
re-exported here for backward compatibility.
"""

from __future__ import annotations

from ..config import StrategySpec, SxnmConfig, strategy_from_string
from ..decision.calibrate import ThreeWayCalibration
from ..decision.policy import ThreeWayPolicy
from ..decision.queue import ReviewQueue
from ..errors import DetectionError
from ..xmlmodel import XmlDocument
from .blocking import build_union_strategy
from .engine import DetectionEngine
from .gk import GkTable
from .observer import EngineObserver
from .results import (CandidateOutcome, KeySelection,  # noqa: F401
                      PhaseTimings, SxnmResult, select_key_indices)
from .simmeasure import Decision
from .spill import SpilledWindowStrategy, SpillingKeySource
from .stages import (DomKeySource, FixedWindowStrategy, MethodClosure,
                     StreamingKeySource, TheoryPolicy, ThresholdPolicy)
from .theory import XmlEquationalTheory


def _select_key_indices(table: GkTable, selection: KeySelection) -> list[int]:
    """Backward-compatible alias of :func:`repro.core.results.select_key_indices`."""
    return select_key_indices(table, selection)


class SxnmDetector:
    """Configured SXNM runner.

    Parameters
    ----------
    config:
        A valid :class:`~repro.config.SxnmConfig` (validated eagerly).
    decision:
        ``"gates"`` (independent OD/descendants thresholds, default) or
        ``"combined"`` (single threshold over the averaged similarity).
        ``"three-way"`` is shorthand for the gates rule under
        ``decision_mode="three-way"``.
    decision_mode:
        ``"threshold"`` (the paper's two-way decision, default) or
        ``"three-way"`` — classify through a
        :class:`~repro.decision.policy.ThreeWayPolicy` whose AUTO_DUP /
        REVIEW / AUTO_KEEP bands come from ``calibration`` (degenerate
        zero-width bands at the configured thresholds when omitted,
        bit-identical to the threshold policy).  ``None`` (default)
        defers to ``config.decision_mode``.
    decision_fpr / decision_coverage:
        Calibration targets recorded on the config (``<decision fpr=
        coverage=>``) for tools that fit calibrations from labelled
        samples (see :mod:`repro.decision.sample`); ``None`` defers to
        the config.
    calibration:
        A fitted :class:`~repro.decision.calibrate.ThreeWayCalibration`
        (or mapping of candidate name to calibration) for three-way
        mode.
    review_queue:
        A :class:`~repro.decision.queue.ReviewQueue` collecting
        REVIEW-banded pairs.
    consistency:
        Force the anti-transitivity demotion pass on/off; ``None``
        (default) enables it exactly when the band has width.
    streaming_keygen:
        Use the single-pass streaming key generator (plain candidate
        paths only).  Output is identical to the DOM generator.
    closure_method:
        Transitive-closure algorithm: ``"union_find"`` (default) or
        ``"quadratic"`` (the 2006-era repeated-merge algorithm whose cost
        grows with the number of duplicate pairs — used to reproduce the
        paper's Fig. 5 TC behaviour).
    use_filters:
        Arm the comparison plane's pruning layers — per-string filter
        bounds and weighted-sum upper-bound aborts — before computing
        edit distances (Sec. 5 outlook).  Identical results under the
        "gates" decision, usually fewer expensive comparisons.
        ``None`` (default) defers to ``config.use_filters``.
    theories:
        Optional per-candidate :class:`XmlEquationalTheory` — domain
        rules replacing the threshold decision for those candidates
        (Sec. 5 outlook).  Candidates not listed keep the similarity
        thresholds.
    duplicate_elimination:
        Use DE-SNM-style passes (Sec. 5 outlook): equal-key groups are
        confirmed against one anchor and only representatives enter the
        window — fewer comparisons on heavily duplicated data.
    phi_cache_dir:
        Directory for the persistent cross-run φ cache
        (``repro.similarity.store``): exact φ scores load on run start
        and new ones are flushed at run end, so repeated detections over
        overlapping corpora skip recomputing edit distances.  Results
        are bit-identical with or without it.  ``None`` (default) defers
        to ``config.phi_cache_dir``; damaged or unwritable directories
        warn via observers and run cold.
    index_dir:
        Directory for the persistent detection index
        (``repro.core.index``): every completed candidate's state is
        committed as the run progresses, and ``run(resume=True)``
        continues an interrupted run from it with bit-identical
        results.  ``None`` (default) defers to ``config.index_dir``;
        damaged or unwritable directories warn via observers and run
        without persistence.
    stream:
        Run the out-of-core path (``repro.core.spill``): key generation
        consumes the event stream directly (XML text, a parsed
        document, or a file via
        :class:`~repro.core.spill.XmlFileSource`), GK rows spill to
        checksummed sorted run files, and window passes slide over the
        externally merged streams holding only ``window`` rows.  Pairs
        and clusters are bit-identical to the in-memory path.  ``None``
        (default) defers to ``config.stream_parse``.
    spill_dir:
        Run-file directory for streaming mode.  ``None`` (default)
        defers to ``config.spill_dir``, then ``<index_dir>/spill``,
        then a self-cleaning temporary directory.
    spill_max_rows:
        Rows buffered in memory before each spill (streaming mode's
        memory/file-count trade-off).  ``None`` (default) defers to
        ``config.spill_max_rows``.
    strategies:
        Candidate-pair generation strategies (``repro.core.blocking``)
        replacing the window-only neighborhood with a deduplicated
        union of their proposals: strategy names or compact
        ``"name:key=value,..."`` strings (the CLI spelling) or
        :class:`~repro.config.StrategySpec` objects — e.g.
        ``["window", "exact-key", "minhash-lsh:seed=7"]``.  Include
        ``"window"`` to keep the paper's window as one member; a list
        of just ``["window"]`` is bit-identical to no strategies at
        all.  Per-strategy attribution counters land in each outcome's
        ``compare_stats.strategy_counters``.  ``None`` (default) defers
        to ``config.neighborhood_strategies``; in streaming mode the
        spilled tables are materialized with a one-time warning.
    observers:
        :class:`~repro.core.observer.EngineObserver` instances streaming
        run/phase/candidate/pass/pair events.
    """

    def __init__(self, config: SxnmConfig, decision: str = "gates",
                 streaming_keygen: bool = False,
                 closure_method: str = "union_find",
                 use_filters: bool | None = None,
                 theories: dict[str, XmlEquationalTheory] | None = None,
                 duplicate_elimination: bool = False,
                 phi_cache_dir: str | None = None,
                 index_dir: str | None = None,
                 stream: bool | None = None,
                 spill_dir: str | None = None,
                 spill_max_rows: int | None = None,
                 strategies: list | None = None,
                 observers: list[EngineObserver] | tuple = (),
                 decision_mode: str | None = None,
                 decision_fpr: float | None = None,
                 decision_coverage: float | None = None,
                 calibration: ThreeWayCalibration
                 | dict[str, ThreeWayCalibration] | None = None,
                 review_queue: ReviewQueue | None = None,
                 consistency: bool | None = None):
        if decision == "three-way":
            decision, decision_mode = "gates", "three-way"
        if decision not in ("gates", "combined"):
            raise DetectionError(f"unknown decision rule {decision!r}")
        self.decision: Decision = decision
        overrides = {
            "decision_mode": decision_mode,
            "decision_fpr": decision_fpr,
            "decision_coverage": decision_coverage,
            "phi_cache_dir": phi_cache_dir,
            "index_dir": index_dir,
            "stream_parse": stream,
            "spill_dir": spill_dir,
            "spill_max_rows": spill_max_rows,
            "neighborhood_strategies": None if strategies is None else [
                strategy if isinstance(strategy, StrategySpec)
                else strategy_from_string(strategy)
                for strategy in strategies],
        }
        overrides = {name: value for name, value in overrides.items()
                     if value is not None}
        if overrides:
            # Never write into the caller's config: run on a copy.
            config = config.with_overrides(**overrides)
        self.decision_mode = config.decision_mode
        self.calibration = calibration
        self.review_queue = review_queue
        self.consistency = consistency
        self.streaming_keygen = streaming_keygen
        self.closure_method = closure_method
        self.use_filters = (use_filters if use_filters is not None
                            else config.use_filters)
        self.theories = dict(theories or {})
        self.duplicate_elimination = duplicate_elimination
        self.phi_cache_dir = config.phi_cache_dir
        self.index_dir = config.index_dir
        self.stream = config.stream_parse
        self.strategies = list(config.neighborhood_strategies)

        if self.strategies:
            neighborhood = build_union_strategy(
                self.strategies,
                duplicate_elimination=duplicate_elimination)
        elif self.stream:
            neighborhood = SpilledWindowStrategy(
                duplicate_elimination=duplicate_elimination)
        else:
            neighborhood = FixedWindowStrategy(
                duplicate_elimination=duplicate_elimination)
        if self.decision_mode == "three-way":
            policy = ThreeWayPolicy(
                calibration=calibration, decision=decision,
                use_filters=self.use_filters, review_queue=review_queue,
                consistency=consistency)
        else:
            policy = ThresholdPolicy(decision, use_filters=self.use_filters)
        if self.stream:
            key_source = SpillingKeySource()
        elif streaming_keygen:
            key_source = StreamingKeySource()
        else:
            key_source = DomKeySource()
        self.engine = DetectionEngine(
            config,
            key_source=key_source,
            neighborhood=neighborhood,
            decision=(TheoryPolicy(self.theories, policy) if self.theories
                      else policy),
            closure=MethodClosure(closure_method),
            observers=observers)
        self.config = self.engine.config
        self.hierarchy = self.engine.hierarchy

    def run(self, source: str | XmlDocument, window: int | None = None,
            key_selection: KeySelection = None,
            gk: dict[str, GkTable] | None = None,
            od_cache: dict[str, dict[tuple[int, int], float]] | None = None,
            resume: bool = False) -> SxnmResult:
        """Detect duplicates in ``source``.

        ``source`` is XML text, a parsed document, or — in streaming
        mode — an :class:`~repro.core.spill.XmlFileSource` naming a
        file read incrementally.

        Parameters
        ----------
        window:
            Override the configured window sizes for every candidate
            (the experiments sweep this).
        key_selection:
            ``None`` → multi-pass with all keys; an int or list of ints
            → only those key indices (single-pass experiments).  A
            candidate lacking a selected key falls back to its own keys.
        gk:
            Precomputed GK tables for exactly this ``source`` (as
            returned in a previous result's ``gk``).  Skips the key
            generation phase — parameter sweeps over the same document
            use this to avoid redundant extraction.
        od_cache:
            Mutable per-candidate cache of OD similarities, keyed by eid
            pair.  Safe to share across runs with the same ``gk`` and the
            same candidate OD definitions (thresholds and windows may
            differ); sweeps pass one dict to avoid recomputing edit
            distances.
        resume:
            Continue an interrupted run from the configured detection
            index (see ``index_dir``); refuses with
            :class:`~repro.errors.DetectionError` when the index does
            not match this run's configuration, corpus, or parameters.
        """
        return self.engine.run(source, window=window,
                               key_selection=key_selection, gk=gk,
                               od_cache=od_cache, resume=resume)


def detect_duplicates(source: str | XmlDocument, config: SxnmConfig,
                      window: int | None = None,
                      decision: str = "gates") -> SxnmResult:
    """One-call convenience: build a detector and run it."""
    return SxnmDetector(config, decision=decision).run(source, window=window)
