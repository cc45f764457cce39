"""Corpus-level batched evaluation over one compiled comparison plan.

The window phase compares each row against its ``window - 1``
predecessors back to back, so consecutive pairs share strings: the
anchor row's values repeat across the whole block.  The pair-at-a-time
:class:`~repro.similarity.plan.ComparisonPlan` walk re-derives lengths
and character bags for every pair anyway.  :class:`PairBatch` amortizes
that work across a block of pairs sharing one plan:

* **per-string artifacts** — lengths and character bags are computed
  once per *distinct string* (memoized across blocks for the life of
  the batch) instead of once per pair side;
* **column-wise prefilters** — the length/bag upper bounds of
  :mod:`repro.similarity.filters` run field-by-field over the whole
  block from those artifacts, so a dropped pair never touches a φ;
* **unchanged survivors** — surviving pairs walk the *unchanged*
  ``plan.resolve``/``plan.score`` path, whose edit distances run on the
  bit-parallel kernel of :mod:`repro.similarity.levenshtein`.

Bit-identity contract
---------------------
Batching never changes a score, a decision, or a non-batch counter:

* the artifact-backed bounds compute *the same arithmetic* as
  :func:`~repro.similarity.filters.length_filter_bound` and
  :func:`~repro.similarity.filters.bag_filter_bound` (integer lengths
  and bag distances are equal by construction, and the final
  ``1 - d / longest`` division runs on the same integers), and bounds
  registered by user φs are called directly;
* survivors run through the very same ``plan`` methods as the
  pair-at-a-time path, in block order — the shared
  :class:`~repro.similarity.plan.PhiCache` /
  :class:`~repro.similarity.store.PersistentPhiCache` seams therefore
  see the identical lookup/insert sequence (single-string artifacts
  never enter those seams: they are not φ scores, and the φ stores stay
  authoritative for exact values only).

What does change is accounted in the two batch-only counters —
``ComparisonStats.batched_pairs`` and ``batch_prefilter_drops``.

The differential battery in ``tests/similarity/test_batch_equivalence``
and the hypothesis suite in ``tests/similarity/test_batch_properties``
hold this contract against random plans, corpora, and thresholds.
"""

from __future__ import annotations

from collections.abc import Sequence

from .filters import bag_filter_bound, length_filter_bound
from .plan import ComparisonPlan, PlanOutcome, _Probe

#: A block item: the two value vectors of one candidate pair.
PairValues = tuple[Sequence, Sequence]


def string_artifacts(value: str) -> tuple[int, dict[str, int]]:
    """The per-string precomputation: ``(length, character bag)``.

    The bag maps each character to its count — the dict form of
    ``collections.Counter(value)`` without the subclass overhead.
    """
    counts: dict[str, int] = {}
    for char in value:
        counts[char] = counts.get(char, 0) + 1
    return len(value), counts


def bag_distance_from_artifacts(left: dict[str, int],
                                right: dict[str, int]) -> int:
    """:func:`~repro.similarity.filters.bag_distance` from two bags.

    ``Counter(a) - Counter(b)`` keeps only positive counts, so summing
    ``max(0, a[c] - b[c])`` over the union of characters is the same
    integer.
    """
    left_only = 0
    right_only = 0
    for char, count in left.items():
        diff = count - right.get(char, 0)
        if diff > 0:
            left_only += diff
    for char, count in right.items():
        diff = count - left.get(char, 0)
        if diff > 0:
            right_only += diff
    return max(left_only, right_only)


class PairBatch:
    """Batched evaluation of candidate-pair blocks over one plan.

    A batch is created once per plan (per candidate) and fed blocks of
    pairs — each a ``(left_values, right_values)`` tuple of the plan's
    value vectors.  Artifacts persist across blocks, so successive
    window blocks whose strings repeat reuse them.

    Every public method is proven equivalent to mapping the matching
    :class:`~repro.similarity.plan.ComparisonPlan` method over the
    block, stats included — except for the two batch-only counters
    (``batched_pairs``, ``batch_prefilter_drops``) that measure the
    batching itself.
    """

    def __init__(self, plan: ComparisonPlan):
        self.plan = plan
        self._artifacts: dict[str, tuple[int, dict[str, int]]] = {}

    # ------------------------------------------------------------------
    # Artifacts and artifact-backed bounds

    def artifacts(self, value: str) -> tuple[int, dict[str, int]]:
        """Memoized :func:`string_artifacts` for ``value``."""
        found = self._artifacts.get(value)
        if found is None:
            found = string_artifacts(value)
            self._artifacts[value] = found
        return found

    def _bound(self, f, left: str, right: str) -> float:
        """``ComparisonPlan._field_bound`` with artifact-backed filters.

        The length and bag bounds are recognized by function identity
        and recomputed from the per-string artifacts with the identical
        arithmetic; unknown (user-registered) bounds are called
        directly.  The ``min`` fold runs in registration order, exactly
        like the pair-at-a-time path.
        """
        bounds = f.traits.upper_bounds
        if not bounds:
            return 1.0
        value = None
        for bound in bounds:
            if bound is length_filter_bound:
                left_len, _ = self.artifacts(left)
                right_len, _ = self.artifacts(right)
                longest = left_len if left_len > right_len else right_len
                term = (1.0 if longest == 0
                        else 1.0 - abs(left_len - right_len) / longest)
            elif bound is bag_filter_bound:
                left_len, left_bag = self.artifacts(left)
                right_len, right_bag = self.artifacts(right)
                longest = left_len if left_len > right_len else right_len
                term = (1.0 if longest == 0 else
                        1.0 - bag_distance_from_artifacts(left_bag,
                                                          right_bag) / longest)
            else:
                term = bound(left, right)
            value = term if value is None else min(value, term)
        return value

    # ------------------------------------------------------------------
    # Block evaluation

    def probe_block(self, block: Sequence[PairValues]) -> list[_Probe]:
        """Stage 1 for a whole block: column-wise pair-level bounds.

        Equivalent to ``[plan.probe(left, right) for left, right in
        block]`` — same probes, same ``pairs_prefiltered`` increments —
        but the filter bounds run field-by-field over the block from
        per-string artifacts.  Counts every pair into ``batched_pairs``
        and every drop into ``batch_prefilter_drops``.
        """
        plan = self.plan
        stats = plan.stats
        stats.batched_pairs += len(block)
        threshold = plan.threshold
        plan_fields = plan.fields
        # Column-wise: one field at a time across all pairs, so each
        # field's bound functions and artifacts stay hot in cache.
        bound_columns: list[list[float | None]] = []
        for f in plan_fields:
            if not f.traits.upper_bounds:
                bound_columns.append([None] * len(block))
                continue
            column: list[float | None] = []
            for left, right in block:
                left_value = left[f.position]
                right_value = right[f.position]
                if left_value is None or right_value is None:
                    column.append(None)
                else:
                    column.append(self._bound(f, left_value, right_value))
            bound_columns.append(column)

        probes: list[_Probe] = []
        for pair_index, (left, right) in enumerate(block):
            total = 0.0
            vals: list[float | None] = [None] * len(plan_fields)
            entries = []
            for field_index, f in enumerate(plan_fields):
                left_value = left[f.position]
                right_value = right[f.position]
                if left_value is None and right_value is None:
                    continue
                total += f.weight
                if left_value is None or right_value is None:
                    continue
                entries.append(f)
                bound = bound_columns[field_index][pair_index]
                vals[f.position] = 1.0 if bound is None else bound
            if total == 0.0:
                probes.append(_Probe(left, right, total, vals, entries,
                                     0.0, False))
                continue
            bound = plan._weighted(vals) / total
            prefiltered = threshold is not None and bound < threshold
            if prefiltered:
                stats.pairs_prefiltered += 1
                stats.batch_prefilter_drops += 1
            probes.append(_Probe(left, right, total, vals, entries, bound,
                                 prefiltered))
        return probes

    def resolve_block(self, probes: Sequence[_Probe]) -> list[PlanOutcome]:
        """Stage 2 for surviving probes.

        Prefiltered probes yield the same inexact outcome
        ``plan.evaluate`` reports for them; survivors run the unchanged
        ``plan.resolve`` in block order (so the shared φ caches see the
        identical sequence).
        """
        plan = self.plan
        outcomes: list[PlanOutcome] = []
        for probe in probes:
            if probe.prefiltered:
                outcomes.append(PlanOutcome(probe.score, exact=False,
                                            prefiltered=True))
            else:
                outcomes.append(plan.resolve(probe))
        return outcomes

    def evaluate_block(self, block: Sequence[PairValues]) -> list[PlanOutcome]:
        """Batched ``plan.evaluate`` (probe + resolve) over a block."""
        return self.resolve_block(self.probe_block(block))

    def score_block(self, block: Sequence[PairValues]) -> list[float]:
        """Batched ``plan.score``: exact weighted similarities.

        No prefilters (scores are exact by definition).  Counts the
        block into ``batched_pairs``.
        """
        plan = self.plan
        plan.stats.batched_pairs += len(block)
        return [plan.score(left, right) for left, right in block]

    def decide_block(self, block: Sequence[PairValues]) -> list[bool]:
        """Batched ``plan.decide``: thresholded decisions."""
        if self.plan.threshold is None:
            raise ValueError("decide_block() needs a plan threshold")
        threshold = self.plan.threshold
        return [outcome.exact and outcome.score >= threshold
                for outcome in self.evaluate_block(block)]
