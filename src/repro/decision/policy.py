"""Three-way decision policy over the engine's ``DecisionPolicy`` seam.

:class:`ThreeWayPolicy` builds :class:`ThreeWayMeasure` deciders — a
:class:`~repro.core.simmeasure.SimilarityMeasure` subclass whose
AUTO_DUP cutoff comes from a fitted
:class:`~repro.decision.calibrate.ThreeWayCalibration` instead of the
raw config threshold, and which bands every compared pair:

* ``AUTO_DUP`` — the verdict's decision rule fired (score at or above
  the Neyman–Pearson ``upper``; under "gates" the descendant gate must
  also pass).
* ``REVIEW`` — the pair is not auto-confirmed but its score reached the
  conformal ``lower`` bound (including "gates" pairs whose OD cleared
  ``upper`` but whose descendant gate vetoed).
* ``AUTO_KEEP`` — everything below ``lower``, including pairs the
  comparison plane prefiltered or pruned (the plan's threshold is
  rebuilt at ``lower`` so pruning proves *score < lower*, never just
  *score < upper*).

A **degenerate** calibration (``lower == upper ==`` the config
threshold) makes the construction literally identical to the base
class: no plan rebuild, an always-empty REVIEW band, and bit-identical
pairs, comparison counts, and clusters — the golden equivalence suite
pins this.

REVIEW pairs are recorded into an optional
:class:`~repro.decision.queue.ReviewQueue` with per-field φ
attribution; after the neighborhood phase the engine calls
:meth:`ThreeWayMeasure.demote_inconsistent`, which removes
anti-transitive AUTO_DUP edges (chains that would swallow an AUTO_KEEP
pair, see :func:`repro.clustering.demote_antitransitive`) and re-bands
them REVIEW before transitive closure.

Band counters ride :class:`~repro.similarity.plan.ComparisonStats`
(``pairs_auto_dup`` / ``pairs_review`` / ``pairs_auto_keep``).
"""

from __future__ import annotations

from ..clustering import demote_antitransitive
from ..config import CandidateSpec, SxnmConfig
from ..core.clusters import ClusterSet
from ..core.gk import GkRow
from ..core.simmeasure import Decision, PairVerdict, SimilarityMeasure
from ..core.stages import _SharedPhiCache
from ..similarity import ComparisonPlan, PhiCache
from .calibrate import AUTO_DUP, AUTO_KEEP, REVIEW, ThreeWayCalibration
from .queue import ReviewItem, ReviewQueue, attribution

PairKey = tuple[int, int]


class ThreeWayMeasure(SimilarityMeasure):
    """A similarity measure that bands pairs AUTO_DUP/REVIEW/AUTO_KEEP."""

    def __init__(self, spec: CandidateSpec, config: SxnmConfig,
                 cluster_sets: dict[str, ClusterSet],
                 calibration: ThreeWayCalibration,
                 decision: Decision = "gates",
                 od_cache: dict[PairKey, float] | None = None,
                 use_filters: bool = False,
                 phi_cache: PhiCache | None = None,
                 queue: ReviewQueue | None = None,
                 consistency: bool | None = None):
        super().__init__(spec, config, cluster_sets, decision=decision,
                         od_cache=od_cache, use_filters=use_filters,
                         phi_cache=phi_cache)
        self.calibration = calibration
        self.lower = calibration.lower
        self.upper = calibration.upper
        self.queue = queue
        self.consistency = consistency
        self._bands: dict[PairKey, str] = {}
        self._dup_records: dict[PairKey, tuple[GkRow, GkRow, PairVerdict]] = {}
        self._pending: PairKey | None = None
        if decision == "combined":
            self.duplicate_threshold = calibration.upper
        else:
            base_threshold = self.od_threshold
            self.od_threshold = calibration.upper
            if self.use_filters and self.lower != base_threshold:
                # The base plan prunes against the *config* threshold;
                # with a review band the plane may only discard pairs it
                # can prove score below the band's floor.  Degenerate
                # calibrations at the config threshold skip this, so
                # their construction stays identical to the base class.
                self.plan = ComparisonPlan.from_od_items(
                    spec.od_items(), threshold=self.lower,
                    phi_cache=self.plan.phi_cache, stats=self.stats)

    # -- banding ----------------------------------------------------------

    def _consistency_active(self) -> bool:
        if self.consistency is not None:
            return self.consistency
        return self.lower < self.upper

    def _band_pair(self, left: GkRow, right: GkRow, band: str,
                   verdict: PairVerdict) -> None:
        key = (min(left.eid, right.eid), max(left.eid, right.eid))
        if key in self._bands:
            return
        self._bands[key] = band
        if band == AUTO_DUP:
            self.stats.pairs_auto_dup += 1
            self._dup_records[key] = (left, right, verdict)
        elif band == REVIEW:
            self.stats.pairs_review += 1
            self._queue_pair(key, left, right, verdict, demoted=False)
        else:
            self.stats.pairs_auto_keep += 1

    def _queue_pair(self, key: PairKey, left: GkRow, right: GkRow,
                    verdict: PairVerdict, demoted: bool) -> None:
        if self.queue is None:
            return
        self.queue.add(ReviewItem(
            candidate=self.spec.name, left_eid=key[0], right_eid=key[1],
            band=REVIEW, od=verdict.od, descendants=verdict.descendants,
            combined=verdict.combined, demoted=demoted,
            fields=attribution(self.spec, left, right)))

    def band(self, left_eid: int, right_eid: int) -> str | None:
        """The recorded band for a pair (``None`` if never compared)."""
        return self._bands.get((min(left_eid, right_eid),
                                max(left_eid, right_eid)))

    def band_counts(self) -> dict[str, int]:
        return {AUTO_DUP: self.stats.pairs_auto_dup,
                REVIEW: self.stats.pairs_review,
                AUTO_KEEP: self.stats.pairs_auto_keep}

    # -- classification hooks ---------------------------------------------

    def compare(self, left: GkRow, right: GkRow) -> PairVerdict:
        self._pending = (min(left.eid, right.eid), max(left.eid, right.eid))
        verdict = super().compare(left, right)
        if self._pending is not None:
            # The plan settled the pair without _classify (prefiltered
            # or pruned): the rebuilt plan proves score < lower.
            self._band_pair(left, right, AUTO_KEEP, verdict)
            self._pending = None
        return verdict

    def _classify(self, left: GkRow, right: GkRow, od: float) -> PairVerdict:
        verdict = super()._classify(left, right, od)
        self._pending = None
        score = verdict.combined if self.decision == "combined" else verdict.od
        if verdict.is_duplicate:
            band = AUTO_DUP
        elif self.lower < self.upper and score >= self.lower:
            band = REVIEW
        else:
            band = AUTO_KEEP
        self._band_pair(left, right, band, verdict)
        return verdict

    # -- consistency pass -------------------------------------------------

    def _score(self, verdict: PairVerdict) -> float:
        return verdict.combined if self.decision == "combined" else verdict.od

    def demote_inconsistent(self, pairs: set[PairKey],
                            ) -> list[tuple[int, int, float]]:
        """Demote anti-transitive AUTO_DUP edges to REVIEW.

        ``pairs`` is the engine's confirmed-pair set for this candidate;
        demoted edges are removed from it (so transitive closure never
        sees them), re-banded REVIEW, queued with ``demoted=True``, and
        returned as ``(left_eid, right_eid, score)`` for observer
        events.  Inactive for degenerate (zero-width) bands, and when
        any confirmed pair was classified outside this decider (restored
        index state) — the pass needs every edge's score.
        """
        if not self._consistency_active() or not pairs:
            return []
        edges: dict[PairKey, float] = {}
        for key in pairs:
            record = self._dup_records.get(key)
            if record is None:
                return []
            edges[key] = self._score(record[2])
        keep_pairs = [key for key, band in self._bands.items()
                      if band == AUTO_KEEP]
        demoted = demote_antitransitive(edges, keep_pairs)
        results: list[tuple[int, int, float]] = []
        for key in demoted:
            left, right, verdict = self._dup_records.pop(key)
            pairs.discard(key)
            self._bands[key] = REVIEW
            self.stats.pairs_auto_dup -= 1
            self.stats.pairs_review += 1
            self._queue_pair(key, left, right, verdict, demoted=True)
            results.append((key[0], key[1], self._score(verdict)))
        return results


class ThreeWayPolicy(_SharedPhiCache):
    """Calibrated three-way decisions over the ``DecisionPolicy`` protocol.

    ``calibration`` is a fitted
    :class:`~repro.decision.calibrate.ThreeWayCalibration`, a mapping of
    candidate name to calibration (multi-candidate configs), or ``None``
    — which yields a *degenerate* zero-width band at each candidate's
    configured threshold, behaviourally identical to
    :class:`~repro.core.stages.ThresholdPolicy`.  ``review_queue``
    collects REVIEW pairs across candidates; ``consistency`` forces the
    anti-transitivity pass on/off (``None`` = active exactly when the
    band has width).
    """

    def __init__(self, calibration: ThreeWayCalibration
                 | dict[str, ThreeWayCalibration] | None = None,
                 decision: Decision = "gates",
                 use_filters: bool | None = None,
                 review_queue: ReviewQueue | None = None,
                 consistency: bool | None = None):
        self.calibration = calibration
        self.decision: Decision = decision
        self.use_filters = use_filters
        self.review_queue = review_queue
        self.consistency = consistency

    def calibration_for(self, spec: CandidateSpec,
                        config: SxnmConfig) -> ThreeWayCalibration:
        calibration = self.calibration
        if isinstance(calibration, dict):
            calibration = calibration.get(spec.name)
        if calibration is None:
            threshold = (config.effective_duplicate_threshold(spec)
                         if self.decision == "combined"
                         else config.effective_od_threshold(spec))
            calibration = ThreeWayCalibration.degenerate(threshold)
        return calibration

    def decider(self, spec, config, cluster_sets, od_cache):
        use_filters = (self.use_filters if self.use_filters is not None
                       else getattr(config, "use_filters", False))
        return ThreeWayMeasure(
            spec, config, cluster_sets,
            calibration=self.calibration_for(spec, config),
            decision=self.decision, od_cache=od_cache,
            use_filters=use_filters, phi_cache=self.phi_cache(config),
            queue=self.review_queue, consistency=self.consistency)


__all__ = ["ThreeWayMeasure", "ThreeWayPolicy"]
