"""Equational theory / similarity matchers for relational records.

The relational SNM decides duplicates with "an equational theory combined
with a similarity measure" (paper Sec. 2.2).  A *matcher* here is any
callable ``(Record, Record) -> bool``.  Two standard implementations:

* :class:`WeightedFieldMatcher` — weighted average of per-field φ
  similarities against a threshold (the same shape as SXNM's OD
  similarity, Def. 2).
* :class:`RuleMatcher` — a conjunction/disjunction of per-field
  conditions, the classic equational-theory style ("name similar AND
  address similar").

Both run on the compiled comparison plane
(:mod:`repro.similarity.plan`): fields are evaluated cheapest-first
with the registry's filter bounds, edit distances are capped at the
threshold's floor, φ scores are memoized in a shared cache, and — for the
weighted matcher — pairs are abandoned as soon as the maximum
still-achievable score falls below the threshold.  Scores and
decisions are bit-identical to the plain field loops they replace.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..similarity import (DEFAULT_PHI_CACHE_SIZE, CompiledCondition,
                          ComparisonPlan, ComparisonStats, PhiCache)
from .record import Record

Matcher = Callable[[Record, Record], bool]


@dataclass(frozen=True)
class FieldRule:
    """One weighted field comparison: field name, weight, φ name."""

    field: str
    weight: float
    phi: str = "edit"


class WeightedFieldMatcher:
    """Weighted-average similarity over fields, thresholded.

    ``rules`` weights should sum to 1 for the score to stay in [0, 1];
    the matcher normalizes by the weight sum so any positive weights
    work.  ``use_filters`` (default on) lets the compiled plan abort a
    pair once its maximum still-achievable score falls below the
    threshold — decisions are unchanged, work usually is.  ``stats``
    exposes the plan's :class:`~repro.similarity.plan.ComparisonStats`.
    """

    def __init__(self, rules: list[FieldRule], threshold: float,
                 use_filters: bool = True,
                 phi_cache: PhiCache | None = None,
                 phi_cache_size: int = DEFAULT_PHI_CACHE_SIZE):
        if not rules:
            raise ValueError("at least one field rule is required")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        total = sum(rule.weight for rule in rules)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._total_weight = total
        self.threshold = threshold
        self.use_filters = use_filters
        if phi_cache is None and phi_cache_size > 0:
            phi_cache = PhiCache(phi_cache_size)
        self.stats = ComparisonStats()
        self._fields = [rule.field for rule in rules]
        self.plan = ComparisonPlan.from_field_rules(
            rules, threshold=threshold if use_filters else None,
            phi_cache=phi_cache, stats=self.stats)

    def _values(self, record: Record) -> list[str]:
        return [record.get(field_name) for field_name in self._fields]

    def similarity(self, left: Record, right: Record) -> float:
        """Weighted-average field similarity in [0, 1] (always exact)."""
        return self.plan.score(self._values(left), self._values(right))

    def __call__(self, left: Record, right: Record) -> bool:
        if not self.use_filters:
            return self.similarity(left, right) >= self.threshold
        return self.plan.decide(self._values(left), self._values(right))


@dataclass(frozen=True)
class Condition:
    """An atomic equational-theory condition on one field."""

    field: str
    phi: str
    at_least: float

    def holds(self, left: Record, right: Record) -> bool:
        return CompiledCondition(self.phi, self.at_least).holds(
            left.get(self.field), right.get(self.field))


class RuleMatcher:
    """Equational theory: ALL of ``require`` and ANY of ``alternatives``.

    ``require`` conditions must all hold; if ``alternatives`` is
    nonempty, at least one of them must hold as well.  Each condition is
    compiled against the registry's filter metadata and all share one φ
    memo cache, so repeated field values and refutable edit distances
    never pay for a full evaluation.
    """

    def __init__(self, require: list[Condition] | None = None,
                 alternatives: list[Condition] | None = None,
                 use_filters: bool = True,
                 phi_cache: PhiCache | None = None,
                 phi_cache_size: int = DEFAULT_PHI_CACHE_SIZE):
        self.require = list(require or [])
        self.alternatives = list(alternatives or [])
        if not self.require and not self.alternatives:
            raise ValueError("a rule matcher needs at least one condition")
        if phi_cache is None and phi_cache_size > 0:
            phi_cache = PhiCache(phi_cache_size)
        self.stats = ComparisonStats()
        self._require = [
            (condition.field,
             CompiledCondition(condition.phi, condition.at_least,
                               phi_cache=phi_cache, stats=self.stats,
                               use_filters=use_filters))
            for condition in self.require]
        self._alternatives = [
            (condition.field,
             CompiledCondition(condition.phi, condition.at_least,
                               phi_cache=phi_cache, stats=self.stats,
                               use_filters=use_filters))
            for condition in self.alternatives]

    def __call__(self, left: Record, right: Record) -> bool:
        if not all(compiled.holds(left.get(field), right.get(field))
                   for field, compiled in self._require):
            return False
        if self._alternatives:
            return any(compiled.holds(left.get(field), right.get(field))
                       for field, compiled in self._alternatives)
        return True
