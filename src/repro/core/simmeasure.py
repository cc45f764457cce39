"""The SXNM similarity measure (paper Defs. 2 and 3).

Three layers:

* :func:`od_similarity` — weighted sum of per-path φ similarities over
  the object descriptions (Def. 2).
* :func:`descendant_similarity` — per descendant type, a set similarity
  over the *cluster ids* of the two elements' descendant instances
  (Def. 3); the paper's φ_desc is the intersection/union ratio
  (Jaccard), and agg() is the average over descendant types.
* :class:`SimilarityMeasure` — binds a candidate's configuration and the
  already-computed descendant cluster sets, and classifies pairs.

Missing data: when *both* elements lack an OD value the term is skipped
and the remaining relevancies are renormalized; when exactly one side is
missing the term contributes 0.  This mirrors the paper's Data set 3
observation that comparisons fall back to the "readable" attributes when
text is missing.

Classification: the paper varies an *OD threshold* and a *descendants
threshold* independently (experiment set 3), i.e. both gates must pass
where descendants are configured.  The alternative single-threshold rule
over the combined similarity (the average of OD and descendant
similarity, as in Sec. 3.4's "our current implementation calculates the
average") is available as ``decision="combined"``.

Since the comparison-plane refactor the OD layer is evaluated through a
compiled :class:`~repro.similarity.plan.ComparisonPlan`: φ functions run
cheapest-first with the registry's filter bounds and a shared memo
cache, and — under the "gates" decision with filters enabled — pairs are
pruned as soon as the maximum still-achievable weighted score falls
below the OD threshold.  Scores and decisions are bit-identical to the
plain field loop (the plan sums exact terms in specification order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..config import CandidateSpec, SxnmConfig
from ..errors import DetectionError
from ..similarity import (ComparisonPlan, ComparisonStats, PhiCache,
                          dice_coefficient, jaccard, multiset_jaccard,
                          overlap_coefficient)
from .clusters import ClusterSet
from .gk import GkRow

_DESC_PHI_FUNCTIONS = {
    "jaccard": jaccard,
    "multiset_jaccard": multiset_jaccard,
    "overlap": overlap_coefficient,
    "dice": dice_coefficient,
}

Decision = Literal["gates", "combined"]


def od_similarity(left: GkRow, right: GkRow, spec: CandidateSpec) -> float:
    """Def. 2: weighted φ similarity of two object descriptions.

    Convenience wrapper compiling a throwaway
    :class:`~repro.similarity.plan.ComparisonPlan`; hot paths hold a
    compiled plan instead.  Bit-identical either way.
    """
    plan = ComparisonPlan.from_od_items(spec.od_items())
    return plan.score(left.ods, right.ods)


def od_similarity_upper_bound(left: GkRow, right: GkRow,
                              spec: CandidateSpec) -> float:
    """A cheap upper bound of :func:`od_similarity`.

    Terms are bounded by the φ's registered filter bounds — the length
    and bag filters for the edit family (see
    :mod:`repro.similarity.filters`), 1.0 for unfiltered functions.  If
    this bound already falls below the OD threshold, the full
    (quadratic) edit distances never need to run — the paper's outlook
    asks exactly how such filters interact with the windowing filter.
    """
    plan = ComparisonPlan.from_od_items(spec.od_items())
    return plan.upper_bound(left.ods, right.ods)


def descendant_similarity(left: GkRow, right: GkRow,
                          cluster_sets: dict[str, ClusterSet],
                          desc_phi: str = "jaccard",
                          weights: dict[str, float] | None = None,
                          ) -> float | None:
    """Def. 3: agg() over per-descendant-type cluster-id similarities.

    Returns ``None`` when neither element has any descendant instances of
    any processed type (no descendant evidence either way).  Descendant
    types are the union of types present on either side; a type entirely
    absent from both sides is skipped.

    ``weights`` realizes the paper's announced agg() extension: each
    descendant type contributes with its weight (default 1.0 — the plain
    average agg() of the paper's current implementation).
    """
    try:
        phi_desc = _DESC_PHI_FUNCTIONS[desc_phi]
    except KeyError:
        raise DetectionError(f"unknown descendant phi {desc_phi!r}") from None
    weights = weights or {}

    type_names = sorted(set(left.children) | set(right.children))
    weighted_sum = 0.0
    weight_total = 0.0
    for name in type_names:
        if name not in cluster_sets:
            raise DetectionError(
                f"descendant candidate {name!r} has no cluster set yet; "
                f"bottom-up order violated")
        cluster_set = cluster_sets[name]
        left_ids = [cluster_set.cid(eid) for eid in left.children.get(name, [])]
        right_ids = [cluster_set.cid(eid) for eid in right.children.get(name, [])]
        if not left_ids and not right_ids:
            continue
        weight = weights.get(name, 1.0)
        if weight < 0:
            raise DetectionError(f"negative descendant weight for {name!r}")
        weighted_sum += weight * phi_desc(left_ids, right_ids)
        weight_total += weight
    if weight_total == 0.0:
        return None
    return weighted_sum / weight_total  # agg() = (weighted) average


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing two candidate instances."""

    od: float
    descendants: float | None
    combined: float
    is_duplicate: bool


class SimilarityMeasure:
    """Configured similarity + classification for one candidate.

    The OD layer runs through a compiled
    :class:`~repro.similarity.plan.ComparisonPlan`; ``phi_cache`` shares
    a φ memo across measures (one is created from
    ``config.phi_cache_size`` when omitted), and ``stats`` exposes the
    plan's :class:`~repro.similarity.plan.ComparisonStats` counters.
    """

    def __init__(self, spec: CandidateSpec, config: SxnmConfig,
                 cluster_sets: dict[str, ClusterSet],
                 decision: Decision = "gates",
                 od_cache: dict[tuple[int, int], float] | None = None,
                 use_filters: bool = False,
                 phi_cache: PhiCache | None = None):
        if decision not in ("gates", "combined"):
            raise DetectionError(f"unknown decision rule {decision!r}")
        self.spec = spec
        self.od_threshold = config.effective_od_threshold(spec)
        self.desc_threshold = config.effective_desc_threshold(spec)
        self.duplicate_threshold = config.effective_duplicate_threshold(spec)
        self.cluster_sets = cluster_sets
        self.decision = decision
        # OD similarity depends only on the extracted OD values, never on
        # window sizes or thresholds — parameter sweeps share this cache.
        self.od_cache = od_cache
        # Length/bag filtering (paper Sec. 5 outlook).  Only sound for the
        # "gates" decision, where a refuted OD threshold settles the pair.
        self.use_filters = use_filters and decision == "gates"
        self.filtered_comparisons = 0
        if phi_cache is None:
            cache_size = getattr(config, "phi_cache_size", 0)
            phi_cache = PhiCache(cache_size) if cache_size > 0 else None
        self.stats = ComparisonStats()
        self.plan = ComparisonPlan.from_od_items(
            spec.od_items(),
            threshold=self.od_threshold if self.use_filters else None,
            phi_cache=phi_cache, stats=self.stats)

    def _cached_od(self, left: GkRow, right: GkRow) -> float | None:
        if self.od_cache is None:
            return None
        key = (min(left.eid, right.eid), max(left.eid, right.eid))
        return self.od_cache.get(key)

    def _store_od(self, left: GkRow, right: GkRow, od: float) -> float:
        if self.od_cache is not None:
            key = (min(left.eid, right.eid), max(left.eid, right.eid))
            self.od_cache[key] = od
        return od

    def compare(self, left: GkRow, right: GkRow) -> PairVerdict:
        """Compute all similarity layers and classify the pair."""
        if self.use_filters:
            probe = self.plan.probe(left.ods, right.ods)
            if probe.prefiltered:
                self.filtered_comparisons += 1
                return PairVerdict(probe.score, None, probe.score, False)
            od = self._cached_od(left, right)
            if od is None:
                outcome = self.plan.resolve(probe)
                if not outcome.exact:
                    # Pruned mid-evaluation: the dominating bound proves
                    # the OD gate fails, so the pair cannot be a
                    # duplicate under "gates" — skip descendants.  Never
                    # cached (the bound is threshold-dependent).
                    return PairVerdict(outcome.score, None, outcome.score,
                                       False)
                od = self._store_od(left, right, outcome.score)
        else:
            od = self._cached_od(left, right)
            if od is None:
                od = self._store_od(left, right,
                                    self.plan.score(left.ods, right.ods))
        return self._classify(left, right, od)

    def _classify(self, left: GkRow, right: GkRow, od: float) -> PairVerdict:
        """Descendant layer + decision rule for an exact OD score."""
        descendants: float | None = None
        if self.spec.use_descendants:
            descendants = descendant_similarity(
                left, right, self.cluster_sets, self.spec.desc_phi,
                weights=self.spec.desc_weights)
        combined = od if descendants is None else (od + descendants) / 2.0

        if self.decision == "combined":
            is_duplicate = combined >= self.duplicate_threshold
        elif descendants is None:
            is_duplicate = od >= self.od_threshold
        else:
            is_duplicate = (od >= self.od_threshold
                            and descendants >= self.desc_threshold)
        return PairVerdict(od, descendants, combined, is_duplicate)
