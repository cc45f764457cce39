"""The compiled comparison plane: filter-aware weighted φ pipelines.

The paper's detection phase spends essentially all its time comparing
pairs inside the window, and its outlook (Sec. 5) points at similarity
*filters* as the lever ("filters are quite effective to avoid
comparisons, especially with the edit distance operations").  This
module compiles a weighted field specification — SXNM OD items or
relational field rules — into a :class:`ComparisonPlan`: an ordered
pipeline of per-field comparators with every pruning layer the decision
threshold makes sound:

* **cost ordering** — cheap φ functions (exact match, numeric) are
  evaluated before expensive edit distances, so a pair refuted by a
  cheap field never pays for an edit distance;
* **per-string filter binding** — any φ whose registry
  :class:`~repro.similarity.registry.PhiTraits` carry filter metadata
  (the edit family by default, user φs by registration) is guarded by
  its cheap upper bounds and, where available, evaluated through a
  floor-bounded evaluation with a floor derived from the decision
  threshold.  Window traffic repeats strings (an anchor meets all its
  predecessors), so the length and character bag behind the two edit
  bounds are memoized per distinct string for the life of the plan;
* **weighted-sum upper-bound pruning** — a pair is abandoned as soon as
  the maximum still-achievable weighted score falls below the threshold;
* **φ memoization** — a shared, size-bounded :class:`PhiCache` maps
  normalized value pairs to exact φ scores, so re-compared values (multi
  pass windows, parameter sweeps) never recompute an edit distance.

Equivalence guarantee
---------------------
Pruning never changes a decision, and it never changes the score of a
pair that *passes* the threshold:

* exact scores are accumulated **in specification order**, so a fully
  evaluated pair is bit-identical to the naive field loop;
* every bound dominates its exact value *term-wise in float arithmetic*
  (monotonic rounding keeps ``Σ wᵢ·boundᵢ ≥ Σ wᵢ·φᵢ`` bitwise when both
  sums run in the same order), so a pruned pair is provably below the
  threshold under the exact arithmetic as well;
* a floor-bounded evaluation whose dominating bound cannot settle the pair
  (a float-boundary corner) falls back to the full φ.

Scores of *pruned* pairs are reported as the dominating upper bound with
``exact=False`` — the same contract the pair-level filter of the
pre-plan implementation already had.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field, fields
from typing import Any

from .filters import (bag_filter_bound, bags_distance, char_bag,
                      length_filter_bound)
from .registry import (PhiTraits, SimilarityFunction, get_similarity,
                       get_traits)

DEFAULT_PHI_CACHE_SIZE = 32768


# ---------------------------------------------------------------------------
# Instrumentation


def _copy_counter(value):
    """Snapshot a counter value: ints as-is, nested dicts deep-copied."""
    if isinstance(value, dict):
        return {key: (dict(inner) if isinstance(inner, dict) else inner)
                for key, inner in value.items()}
    return value


def _add_counter(current, value):
    """``current + value`` for int counters, recursive add for mappings."""
    if isinstance(value, dict):
        merged = _copy_counter(current) if current else {}
        for key, inner in value.items():
            if isinstance(inner, dict):
                slot = merged.setdefault(key, {})
                for counter, count in inner.items():
                    slot[counter] = slot.get(counter, 0) + count
            else:
                merged[key] = merged.get(key, 0) + inner
        return merged
    return current + value


@dataclass
class ComparisonStats:
    """Counters of what a comparison plan actually paid for.

    Surfaced per candidate through
    :meth:`repro.core.observer.EngineObserver.comparison_stats` and
    aggregated by ``CounterObserver``; ``sxnm detect --trace`` prints
    them after each candidate.
    """

    pairs_scored: int = 0          # pairs that entered full scoring
    pairs_prefiltered: int = 0     # pairs rejected by the pair-level bound
    pairs_pruned: int = 0          # pairs abandoned mid-evaluation
    fields_evaluated: int = 0      # per-field φ evaluations attempted
    fields_skipped: int = 0        # fields never touched thanks to pruning
    filter_short_circuits: int = 0  # per-field floor-bounded refutations
    phi_cache_hits: int = 0
    phi_cache_misses: int = 0
    phi_cache_disk_hits: int = 0   # hits served from the persistent spill
    phi_cache_spilled: int = 0     # exact scores newly queued for disk
    edit_full_evals: int = 0       # full runs of filterable (edit-like) φs
    edit_bounded_evals: int = 0    # floor-bounded evaluations
    # Three-way decision bands (repro.decision): unique pairs this
    # decider placed in each band.  Zero everywhere for plain threshold
    # policies.
    pairs_auto_dup: int = 0
    pairs_review: int = 0
    pairs_auto_keep: int = 0
    # Per-neighborhood-strategy attribution for union-of-strategies runs:
    # strategy name -> {"generated", "fresh", "compared", "duplicates"}.
    # Mapping-valued, unlike every counter above — merge/as_dict handle
    # nested dicts so the field survives the detection-index JSON
    # round-trip.
    strategy_counters: dict = dataclass_field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        # Derived from the dataclass fields so a counter added later can
        # never be silently dropped by :meth:`merge` (which iterates this
        # dict).
        # Mapping-valued counters are deep-copied so a snapshot is immune
        # to later in-place mutation of the live stats.
        return {spec.name: _copy_counter(getattr(self, spec.name))
                for spec in fields(self)}

    def merge(self, other: "ComparisonStats") -> None:
        """Add ``other``'s counters into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, _add_counter(getattr(self, name), value))

    @classmethod
    def from_dict(cls, counters: dict) -> "ComparisonStats":
        """Rebuild from an :meth:`as_dict` snapshot, e.g. one persisted
        in a detection index.  Counters this version no longer keeps
        are ignored, so an index written before a counter was retired
        still restores."""
        known = {spec.name for spec in fields(cls)}
        return cls(**{name: value for name, value in counters.items()
                      if name in known})

    @property
    def phi_cache_hit_rate(self) -> float:
        """Hit share of all cache lookups (0.0 when none happened)."""
        lookups = self.phi_cache_hits + self.phi_cache_misses
        return self.phi_cache_hits / lookups if lookups else 0.0

    @property
    def filter_short_circuit_rate(self) -> float:
        """Share of attempted field evaluations settled by a filter."""
        if not self.fields_evaluated:
            return 0.0
        return self.filter_short_circuits / self.fields_evaluated


class PhiCache:
    """A size-bounded LRU memo of exact φ scores.

    Keys are ``(phi_name, left, right)`` value pairs — symmetric φs (per
    their registry traits) are normalized so either orientation hits.
    Only *exact* scores are ever stored; truncated bounds from pruned
    evaluations never enter the cache, so a cached value is always safe
    to reuse under any threshold.

    An optional ``spill`` (a
    :class:`repro.similarity.store.PersistentPhiCache`) extends the memo
    across runs: LRU misses consult the spill (``from_disk`` flags the
    last :meth:`get` that was served from it, counted as
    ``phi_cache_disk_hits``), and every exact score is queued there for
    the engine's end-of-run flush.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses", "disk_hits",
                 "spill", "from_disk")

    def __init__(self, maxsize: int = DEFAULT_PHI_CACHE_SIZE, spill=None):
        if maxsize <= 0:
            raise ValueError("phi cache size must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.spill = spill
        self.from_disk = False

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> float | None:
        self.from_disk = False
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return value
        if self.spill is not None:
            value = self.spill.lookup(key)
            if value is not None:
                # Promote into the LRU so repeats stay dict-cheap.
                self.put(key, value)
                self.hits += 1
                self.disk_hits += 1
                self.from_disk = True
                return value
        self.misses += 1
        return None

    def put(self, key: tuple, value: float) -> bool:
        """Store one exact score; ``True`` iff it was newly spilled."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        if self.spill is not None:
            return self.spill.record(key, value)
        return False

    def clear(self) -> None:
        """Drop the entries *and* the hit/miss counters (a cleared cache
        reports like a fresh one; the spill is not touched)."""
        self._entries.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without dropping entries."""
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.from_disk = False


# ---------------------------------------------------------------------------
# Plan compilation


@dataclass(frozen=True)
class PlanField:
    """One weighted field of a comparison plan."""

    label: str
    weight: float
    phi: str = "edit"


class _CompiledField:
    """A plan field bound to its φ callable and registry traits."""

    __slots__ = ("position", "label", "weight", "phi_name", "phi", "traits",
                 "filterable")

    def __init__(self, position: int, spec: PlanField):
        self.position = position
        self.label = spec.label
        self.weight = spec.weight
        self.phi_name = spec.phi
        self.phi: SimilarityFunction = get_similarity(spec.phi)
        self.traits: PhiTraits = get_traits(spec.phi)
        self.filterable = bool(self.traits.upper_bounds
                               or self.traits.bounded is not None)


@dataclass(frozen=True)
class PlanOutcome:
    """What evaluating one pair produced.

    ``score`` is the exact weighted similarity when ``exact`` is true,
    and a dominating upper bound (provably below the threshold)
    otherwise.  ``prefiltered`` marks pairs rejected by the pair-level
    bound before any φ ran.
    """

    score: float
    exact: bool
    prefiltered: bool = False
    fields_evaluated: int = 0


class _Probe:
    """Pair-level bound state, reusable by the full evaluation."""

    __slots__ = ("left", "right", "total", "vals", "entries", "score",
                 "prefiltered")

    def __init__(self, left, right, total, vals, entries, score, prefiltered):
        self.left = left
        self.right = right
        self.total = total
        self.vals = vals
        self.entries = entries
        self.score = score
        self.prefiltered = prefiltered


class ComparisonPlan:
    """A compiled, filter-aware weighted comparison over value vectors.

    Parameters
    ----------
    fields:
        The weighted field spec, in *specification order* — the order
        determines both value-vector positions and the exact summation
        order (the bit-identity contract).
    threshold:
        The decision threshold the pruning layers are derived from.
        ``None`` disables pruning (:meth:`evaluate` degrades to
        :meth:`score`).
    phi_cache:
        A shared :class:`PhiCache`, or ``None`` to disable memoization.
    stats:
        A :class:`ComparisonStats` to count into (one is created when
        omitted).

    Missing values follow the paper's OD semantics: a field missing on
    *both* sides is skipped and the remaining weights renormalized; a
    field missing on one side counts its weight but contributes zero.
    """

    def __init__(self, fields: Sequence[PlanField],
                 threshold: float | None = None,
                 phi_cache: PhiCache | None = None,
                 stats: ComparisonStats | None = None):
        self.fields = [_CompiledField(position, spec)
                       for position, spec in enumerate(fields)]
        self.threshold = threshold
        self.phi_cache = phi_cache
        self.stats = stats if stats is not None else ComparisonStats()
        # Distinct string -> (length, character bag) for the edit bounds.
        self._strings: dict[str, tuple[int, dict[str, int]]] = {}
        # Cheap φs first, expensive last; heavier weights break ties so
        # high-relevance fields settle pairs earlier.
        self._order = sorted(
            self.fields,
            key=lambda f: (f.traits.cost, -f.weight, f.position))

    # ------------------------------------------------------------------
    # Construction from the two historical field-spec shapes

    @classmethod
    def from_od_items(cls, od_items: Sequence[tuple[Any, float, str]],
                      **kwargs) -> "ComparisonPlan":
        """Compile SXNM OD items ``(path, relevance, phi_name)``
        (:meth:`repro.config.CandidateSpec.od_items`)."""
        return cls([PlanField(str(path), relevance, phi)
                    for path, relevance, phi in od_items], **kwargs)

    @classmethod
    def from_field_rules(cls, rules: Sequence[Any], **kwargs) -> "ComparisonPlan":
        """Compile relational field rules (``.field``/``.weight``/``.phi``)."""
        return cls([PlanField(rule.field, rule.weight, rule.phi)
                    for rule in rules], **kwargs)

    # ------------------------------------------------------------------
    # Internal machinery

    def _scan(self, left: Sequence[str | None], right: Sequence[str | None],
              with_bounds: bool):
        """Missing-value pass: total weight, value slots, present fields."""
        total = 0.0
        vals: list[float | None] = [None] * len(self.fields)
        entries: list[_CompiledField] = []
        for f in self.fields:
            left_value = left[f.position]
            right_value = right[f.position]
            if left_value is None and right_value is None:
                continue  # both missing: skipped, weights renormalized
            total += f.weight
            if left_value is None or right_value is None:
                continue  # one side missing: contributes 0
            entries.append(f)
            if with_bounds:
                vals[f.position] = self._field_bound(f, left_value,
                                                     right_value)
        return total, vals, entries

    def _string(self, value: str) -> tuple[int, dict[str, int]]:
        found = self._strings.get(value)
        if found is None:
            found = self._strings[value] = (len(value), char_bag(value))
        return found

    def _field_bound(self, f: _CompiledField, left: str, right: str) -> float:
        """The ``min`` of the field's registered upper bounds.

        The length and bag bounds run on the memoized per-string
        lengths and bags with the same integer arithmetic as
        :func:`~repro.similarity.filters.length_filter_bound` and
        :func:`~repro.similarity.filters.bag_filter_bound`, so every
        term is the same float; other bounds are called directly.
        """
        bounds = f.traits.upper_bounds
        if not bounds:
            return 1.0
        value = None
        for bound in bounds:
            if bound is length_filter_bound or bound is bag_filter_bound:
                left_len, left_bag = self._string(left)
                right_len, right_bag = self._string(right)
                longest = left_len if left_len > right_len else right_len
                if longest == 0:
                    term = 1.0
                elif bound is length_filter_bound:
                    term = 1.0 - abs(left_len - right_len) / longest
                else:
                    term = 1.0 - bags_distance(left_bag, right_bag) / longest
            else:
                term = bound(left, right)
            value = term if value is None else min(value, term)
        return value

    def _weighted(self, vals: list[float | None]) -> float:
        """Specification-order weighted sum over the filled slots."""
        weighted = 0.0
        for f in self.fields:
            value = vals[f.position]
            if value is not None:
                weighted += f.weight * value
        return weighted

    def _cache_key(self, f: _CompiledField, left: str, right: str) -> tuple:
        if f.traits.symmetric and right < left:
            left, right = right, left
        return (f.phi_name, left, right)

    def _full_phi(self, f: _CompiledField, left: str, right: str,
                  key: tuple | None) -> float:
        value = f.phi(left, right)
        if f.filterable:
            self.stats.edit_full_evals += 1
        if key is not None and self.phi_cache.put(key, value):
            self.stats.phi_cache_spilled += 1
        return value

    def _evaluate_field(self, f: _CompiledField, left: str, right: str,
                        floor_hint: float) -> tuple[float, bool]:
        """One field's φ value as ``(value, exact)``.

        ``floor_hint`` is the minimum φ value that could still push the
        pair over the threshold; a positive hint arms the floor-bounded
        evaluation of filterable φs.  An inexact return is a term-wise
        dominating upper bound below the hint.
        """
        stats = self.stats
        stats.fields_evaluated += 1
        key = None
        if self.phi_cache is not None:
            key = self._cache_key(f, left, right)
            cached = self.phi_cache.get(key)
            if cached is not None:
                stats.phi_cache_hits += 1
                if self.phi_cache.from_disk:
                    stats.phi_cache_disk_hits += 1
                return cached, True
            stats.phi_cache_misses += 1
        bounded = f.traits.bounded
        if bounded is not None and floor_hint > 0.0:
            value, exact = bounded(left, right, min(floor_hint, 1.0))
            stats.edit_bounded_evals += 1
            if exact:
                if key is not None and self.phi_cache.put(key, value):
                    stats.phi_cache_spilled += 1
                return value, True
            stats.filter_short_circuits += 1
            return value, False
        return self._full_phi(f, left, right, key), True

    # ------------------------------------------------------------------
    # Public evaluation surface

    def upper_bound(self, left: Sequence[str | None],
                    right: Sequence[str | None]) -> float:
        """The pair-level cheap bound (no φ runs) — never below
        :meth:`score`, term-wise even in float arithmetic."""
        total, vals, _ = self._scan(left, right, with_bounds=True)
        if total == 0.0:
            return 0.0
        return self._weighted(vals) / total

    def score(self, left: Sequence[str | None],
              right: Sequence[str | None]) -> float:
        """The exact weighted similarity (bit-identical to the naive
        field loop); memoized but never pruned."""
        total, vals, entries = self._scan(left, right, with_bounds=False)
        if total == 0.0:
            return 0.0
        for f in entries:
            vals[f.position], _ = self._evaluate_field(
                f, left[f.position], right[f.position], 0.0)
        return self._weighted(vals) / total

    def probe(self, left: Sequence[str | None],
              right: Sequence[str | None]) -> _Probe:
        """Stage 1: the pair-level bound against the threshold."""
        total, vals, entries = self._scan(left, right, with_bounds=True)
        if total == 0.0:
            return _Probe(left, right, total, vals, entries, 0.0, False)
        bound = self._weighted(vals) / total
        prefiltered = (self.threshold is not None and bound < self.threshold)
        if prefiltered:
            self.stats.pairs_prefiltered += 1
        return _Probe(left, right, total, vals, entries, bound, prefiltered)

    def resolve(self, probe: _Probe) -> PlanOutcome:
        """Stage 2: threshold-aware evaluation continuing a probe.

        Evaluates the present fields in cost order, aborting as soon as
        the maximum still-achievable score falls below the threshold and
        short-circuiting filterable φs through their floor-bounded
        evaluation.
        """
        if probe.total == 0.0:
            return PlanOutcome(0.0, exact=True)
        threshold = self.threshold
        if threshold is None:
            return PlanOutcome(self.score(probe.left, probe.right),
                               exact=True,
                               fields_evaluated=len(probe.entries))
        stats = self.stats
        stats.pairs_scored += 1
        total, vals = probe.total, probe.vals
        target = threshold * total
        present = {f.position for f in probe.entries}
        order = [f for f in self._order if f.position in present]
        upper = probe.score
        evaluated = 0
        for index, f in enumerate(order):
            if upper < threshold:
                stats.pairs_pruned += 1
                stats.fields_skipped += len(order) - index
                return PlanOutcome(upper, exact=False,
                                   fields_evaluated=evaluated)
            left_value = probe.left[f.position]
            right_value = probe.right[f.position]
            floor_hint = 0.0
            if f.weight > 0.0:
                others = self._weighted(vals) - f.weight * vals[f.position]
                floor_hint = (target - others) / f.weight
            value, exact = self._evaluate_field(f, left_value, right_value,
                                                floor_hint)
            vals[f.position] = value
            evaluated += 1
            if not exact:
                upper = self._weighted(vals) / total
                if upper >= threshold:
                    # Float-boundary corner: the truncation bound cannot
                    # settle the pair — fall back to the exact φ.
                    key = (self._cache_key(f, left_value, right_value)
                           if self.phi_cache is not None else None)
                    vals[f.position] = self._full_phi(f, left_value,
                                                      right_value, key)
                else:
                    stats.pairs_pruned += 1
                    stats.fields_skipped += len(order) - index - 1
                    return PlanOutcome(upper, exact=False,
                                       fields_evaluated=evaluated)
            upper = self._weighted(vals) / total
        return PlanOutcome(upper, exact=True, fields_evaluated=evaluated)

    def evaluate(self, left: Sequence[str | None],
                 right: Sequence[str | None]) -> PlanOutcome:
        """Probe + resolve in one call (the relational entry point)."""
        probe = self.probe(left, right)
        if probe.prefiltered:
            return PlanOutcome(probe.score, exact=False, prefiltered=True)
        return self.resolve(probe)

    def decide(self, left: Sequence[str | None],
               right: Sequence[str | None]) -> bool:
        """Thresholded decision with every pruning layer engaged.

        Guaranteed to equal ``score(left, right) >= threshold`` bitwise.
        """
        if self.threshold is None:
            raise ValueError("decide() needs a plan threshold")
        outcome = self.evaluate(left, right)
        return outcome.exact and outcome.score >= self.threshold


# ---------------------------------------------------------------------------
# Single-field conditions (equational theories, Fellegi-Sunter agreement)


class CompiledCondition:
    """One φ-versus-floor test compiled with its filter binding.

    The equational-theory building block: ``holds(left, right)`` equals
    ``phi(left, right) >= at_least`` bitwise, but consults the cheap
    upper bounds, the floor-bounded evaluation (for filterable φs), and
    the shared :class:`PhiCache` before ever paying for a full
    evaluation.
    """

    __slots__ = ("phi_name", "at_least", "phi", "traits", "phi_cache",
                 "stats", "use_filters", "filterable")

    def __init__(self, phi_name: str, at_least: float,
                 phi_cache: PhiCache | None = None,
                 stats: ComparisonStats | None = None,
                 use_filters: bool = True):
        self.phi_name = phi_name
        self.at_least = at_least
        self.phi = get_similarity(phi_name)
        self.traits = get_traits(phi_name)
        self.phi_cache = phi_cache
        self.stats = stats if stats is not None else ComparisonStats()
        self.use_filters = use_filters
        self.filterable = bool(self.traits.upper_bounds
                               or self.traits.bounded is not None)

    def _key(self, left: str, right: str) -> tuple:
        if self.traits.symmetric and right < left:
            left, right = right, left
        return (self.phi_name, left, right)

    def similarity(self, left: str, right: str) -> float:
        """The exact (memoized) φ value."""
        stats = self.stats
        stats.fields_evaluated += 1
        key = None
        if self.phi_cache is not None:
            key = self._key(left, right)
            cached = self.phi_cache.get(key)
            if cached is not None:
                stats.phi_cache_hits += 1
                if self.phi_cache.from_disk:
                    stats.phi_cache_disk_hits += 1
                return cached
            stats.phi_cache_misses += 1
        value = self.phi(left, right)
        if self.filterable:
            stats.edit_full_evals += 1
        if key is not None and self.phi_cache.put(key, value):
            stats.phi_cache_spilled += 1
        return value

    def holds(self, left: str, right: str) -> bool:
        """``phi(left, right) >= at_least``, filter-accelerated."""
        if not self.use_filters:
            return self.similarity(left, right) >= self.at_least
        stats = self.stats
        for bound in self.traits.upper_bounds:
            if bound(left, right) < self.at_least:
                stats.fields_evaluated += 1
                stats.filter_short_circuits += 1
                return False
        bounded = self.traits.bounded
        if bounded is not None and self.at_least > 0.0:
            key = None
            if self.phi_cache is not None:
                key = self._key(left, right)
                cached = self.phi_cache.get(key)
                if cached is not None:
                    stats.fields_evaluated += 1
                    stats.phi_cache_hits += 1
                    if self.phi_cache.from_disk:
                        stats.phi_cache_disk_hits += 1
                    return cached >= self.at_least
                stats.phi_cache_misses += 1
            stats.fields_evaluated += 1
            value, exact = bounded(left, right, min(self.at_least, 1.0))
            stats.edit_bounded_evals += 1
            if exact:
                if key is not None and self.phi_cache.put(key, value):
                    stats.phi_cache_spilled += 1
                return value >= self.at_least
            if value < self.at_least:
                stats.filter_short_circuits += 1
                return False
            # Float-boundary corner — resolve with the full φ.
            value = self.phi(left, right)
            stats.edit_full_evals += 1
            if key is not None and self.phi_cache.put(key, value):
                stats.phi_cache_spilled += 1
            return value >= self.at_least
        return self.similarity(left, right) >= self.at_least
