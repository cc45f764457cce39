"""Fellegi-Sunter probabilistic record linkage.

The paper grounds duplicate detection in the Fellegi-Sunter model
(ref. [10]): each field comparison contributes a log-likelihood weight
``log(m/u)`` when it agrees and ``log((1-m)/(1-u))`` when it disagrees,
where *m* is the probability of agreement among true matches and *u*
among non-matches.  The summed weight is compared against an upper and a
lower threshold, giving a *match* / *possible* / *non-match* decision.

:class:`FellegiSunterMatcher` implements the model over
:class:`~repro.relational.Record` pairs (agreement = φ similarity above a
per-field level), and :func:`estimate_mu_probabilities` fits m/u from a
labelled sample — the calibration step Fellegi-Sunter derive and SNM
papers typically hand-tune.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from ..similarity import (DEFAULT_PHI_CACHE_SIZE, CompiledCondition,
                          ComparisonStats, PhiCache, get_similarity)
from .record import Record

_EPSILON = 1e-6


@dataclass(frozen=True)
class FieldModel:
    """Per-field parameters of the Fellegi-Sunter model.

    ``agree_at`` is the φ-similarity level at or above which the field
    counts as agreeing; ``m`` and ``u`` are the conditional agreement
    probabilities given match / non-match.
    """

    field: str
    m: float
    u: float
    phi: str = "edit"
    agree_at: float = 0.9

    def __post_init__(self):
        for name, value in (("m", self.m), ("u", self.u)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} probability must lie in (0, 1)")
        if self.m <= self.u:
            raise ValueError("m must exceed u for an informative field")

    @property
    def agreement_weight(self) -> float:
        return math.log(self.m / self.u)

    @property
    def disagreement_weight(self) -> float:
        return math.log((1.0 - self.m) / (1.0 - self.u))

    def agrees(self, left: Record, right: Record) -> bool:
        return CompiledCondition(self.phi, self.agree_at).holds(
            left.get(self.field), right.get(self.field))


class FellegiSunterMatcher:
    """Weight-summing matcher with match / possible / non-match bands.

    Each field's agreement test is compiled against the registry's
    filter metadata (length/bag bounds, capped distance for the edit family)
    with a shared φ memo cache; agreement outcomes, weights, and
    classifications are identical to the plain per-field loop.
    """

    def __init__(self, fields: list[FieldModel], upper: float,
                 lower: float | None = None, use_filters: bool = True,
                 phi_cache: PhiCache | None = None,
                 phi_cache_size: int = DEFAULT_PHI_CACHE_SIZE):
        if not fields:
            raise ValueError("at least one field model is required")
        if lower is None:
            lower = upper
        if lower > upper:
            raise ValueError("lower threshold must not exceed upper")
        self.fields = list(fields)
        self.upper = upper
        self.lower = lower
        if phi_cache is None and phi_cache_size > 0:
            phi_cache = PhiCache(phi_cache_size)
        self.stats = ComparisonStats()
        self._agreements = [
            (model,
             CompiledCondition(model.phi, model.agree_at,
                               phi_cache=phi_cache, stats=self.stats,
                               use_filters=use_filters))
            for model in self.fields]

    def weight(self, left: Record, right: Record) -> float:
        """Summed log-likelihood weight of the pair."""
        total = 0.0
        for model, agreement in self._agreements:
            if agreement.holds(left.get(model.field), right.get(model.field)):
                total += model.agreement_weight
            else:
                total += model.disagreement_weight
        return total

    def classify(self, left: Record, right: Record) -> str:
        """``"match"``, ``"possible"``, or ``"non-match"``."""
        weight = self.weight(left, right)
        if weight >= self.upper:
            return "match"
        if weight >= self.lower:
            return "possible"
        return "non-match"

    def __call__(self, left: Record, right: Record) -> bool:
        """Matcher protocol: True iff the pair is a definite match."""
        return self.weight(left, right) >= self.upper


def calibrate_fellegi_sunter(
        fields: list[FieldModel],
        pairs: list[tuple[Record, Record]],
        labels: list[bool], *,
        fpr: float = 0.05, coverage: float = 0.9, confidence: float = 0.95,
        seed: int = 0, use_filters: bool = True):
    """Fit the match / possible bands from labelled pairs.

    Scores every pair with the summed Fellegi-Sunter weight and hands
    the (weight, label) sample to
    :func:`repro.decision.calibrate_three_way`: the *match* threshold is
    the Neyman-Pearson cutoff holding the false-positive rate at or
    below ``fpr`` (with a Clopper-Pearson guard at ``confidence``), and
    the *possible* band widens downward until held-out true matches are
    covered at level ``coverage``.  Returns ``(matcher, calibration)``
    where ``matcher`` is a :class:`FellegiSunterMatcher` with
    ``upper``/``lower`` set from the calibration — its ``classify``
    bands then map onto the three-way decisions (*match* →
    ``AUTO_DUP``, *possible* → ``REVIEW``, *non-match* → ``AUTO_KEEP``,
    see :func:`band_of`).
    """
    # Imported lazily: repro.decision pulls in the detection core, which
    # this module must not require at import time.
    from ..decision.calibrate import calibrate_three_way
    scorer = FellegiSunterMatcher(fields, upper=0.0, use_filters=use_filters)
    weights = [scorer.weight(left, right) for left, right in pairs]
    calibration = calibrate_three_way(
        weights, labels, fpr=fpr, coverage=coverage, confidence=confidence,
        seed=seed)
    matcher = FellegiSunterMatcher(fields, upper=calibration.upper,
                                   lower=calibration.lower,
                                   use_filters=use_filters)
    return matcher, calibration


def band_of(classification: str) -> str:
    """Map a :meth:`FellegiSunterMatcher.classify` label to a decision band."""
    from ..decision.calibrate import AUTO_DUP, AUTO_KEEP, REVIEW
    bands = {"match": AUTO_DUP, "possible": REVIEW, "non-match": AUTO_KEEP}
    try:
        return bands[classification]
    except KeyError:
        raise ValueError(
            f"unknown classification {classification!r}; "
            f"known: {sorted(bands)}") from None


def estimate_mu_probabilities(
        matches: Iterable[tuple[Record, Record]],
        non_matches: Iterable[tuple[Record, Record]],
        field: str, phi: str = "edit", agree_at: float = 0.9) -> FieldModel:
    """Fit a :class:`FieldModel` from labelled pairs.

    ``m`` is the observed agreement rate among ``matches`` and ``u``
    among ``non_matches``, clamped away from 0/1 so the log weights stay
    finite.  Raises ``ValueError`` when either sample is empty or the
    field is uninformative (m ≤ u).
    """
    similarity = get_similarity(phi)

    def agreement_rate(pairs: Iterable[tuple[Record, Record]]) -> float:
        total = 0
        agreed = 0
        for left, right in pairs:
            total += 1
            if similarity(left.get(field), right.get(field)) >= agree_at:
                agreed += 1
        if total == 0:
            raise ValueError("cannot estimate probabilities from no pairs")
        return min(max(agreed / total, _EPSILON), 1.0 - _EPSILON)

    m = agreement_rate(matches)
    u = agreement_rate(non_matches)
    if m <= u:
        raise ValueError(
            f"field {field!r} is uninformative: m={m:.4f} <= u={u:.4f}")
    return FieldModel(field, m, u, phi=phi, agree_at=agree_at)
