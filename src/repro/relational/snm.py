"""The classical Sorted Neighborhood Method (Hernández & Stolfo).

Three steps (paper Sec. 2.2): key generation, lexicographic sorting, and
a fixed-size window sliding over the sorted keys, comparing only records
inside the window.  The multi-pass variant repeats the process with
several keys and unions the pairs before transitive closure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter

from ..clustering import transitive_closure
from ..core.window import compare_pairs, window_pairs
from ..keys import parse_pattern
from .matchers import Matcher
from .record import Record, Relation


@dataclass(frozen=True)
class RelationalKeyPart:
    """One key component: a field name and an extraction pattern."""

    field: str
    pattern: str


@dataclass(frozen=True)
class RelationalKey:
    """An ordered list of parts building one sort key for a record."""

    parts: tuple[RelationalKeyPart, ...]
    name: str = "key"

    @classmethod
    def create(cls, parts: list[tuple[str, str]], name: str = "key") -> RelationalKey:
        """Build from ``[(field, pattern), ...]``."""
        if not parts:
            raise ValueError("a key needs at least one part")
        return cls(tuple(RelationalKeyPart(f, p) for f, p in parts), name=name)

    def generate(self, record: Record) -> str:
        """Uppercased key string for ``record`` (missing fields skipped)."""
        chunks = []
        for part in self.parts:
            chunks.append(parse_pattern(part.pattern).extract(record.get(part.field)))
        return "".join(chunks).upper()


@dataclass
class SnmResult:
    """Outcome of an SNM run.

    ``pairs`` are the matcher-confirmed duplicate pairs (rid tuples,
    smaller first); ``clusters`` the transitive closure over all records;
    ``comparisons`` the number of matcher invocations; timing fields are
    seconds per phase (KG = key generation + sort, SW = sliding window,
    TC = transitive closure).
    """

    pairs: set[tuple[int, int]] = field(default_factory=set)
    clusters: list[list[int]] = field(default_factory=list)
    comparisons: int = 0
    key_generation_seconds: float = 0.0
    window_seconds: float = 0.0
    closure_seconds: float = 0.0

    @property
    def duplicate_detection_seconds(self) -> float:
        """The paper's DD time: sliding window plus transitive closure."""
        return self.window_seconds + self.closure_seconds


def _window_pass(sorted_rids: list[int], relation: Relation, window: int,
                 matcher: Matcher, pairs: set[tuple[int, int]]) -> int:
    """Slide a ``window`` over ``sorted_rids``; return comparison count.

    Each new record entering the window is compared against the ``window
    - 1`` records before it, the standard formulation equivalent to
    comparing all pairs within each window position.  Every window pair
    is compared, even one an earlier pass already confirmed.
    """
    return compare_pairs(
        window_pairs([relation[rid] for rid in sorted_rids], window),
        matcher, pairs, skip_known=False, ident=attrgetter("rid"),
        is_duplicate=bool)


def sorted_neighborhood(relation: Relation, keys: list[RelationalKey],
                        matcher: Matcher, window: int = 5,
                        closure: bool = True) -> SnmResult:
    """Run (multi-pass) SNM over ``relation``.

    One sliding-window pass per key in ``keys``; pairs are unioned across
    passes and closed transitively (the multi-pass method, which the
    paper reports "significantly increases recall").

    Parameters
    ----------
    relation:
        The records to deduplicate.
    keys:
        Key definitions; one pass each.  Must be non-empty.
    matcher:
        Equational theory / similarity decision ``(Record, Record) -> bool``.
    window:
        Window size ``w >= 2``; each record is compared to its ``w - 1``
        predecessors in key order.
    closure:
        When false, skip transitive closure (``clusters`` stays empty) —
        useful for measuring phase costs separately.
    """
    if not keys:
        raise ValueError("at least one key is required")
    if window < 2:
        raise ValueError("window size must be >= 2")

    result = SnmResult()
    all_rids = [record.rid for record in relation]

    for key in keys:
        start = time.perf_counter()
        keyed = sorted(all_rids, key=lambda rid: (key.generate(relation[rid]), rid))
        result.key_generation_seconds += time.perf_counter() - start

        start = time.perf_counter()
        result.comparisons += _window_pass(keyed, relation, window, matcher,
                                           result.pairs)
        result.window_seconds += time.perf_counter() - start

    if closure:
        start = time.perf_counter()
        result.clusters = transitive_closure(result.pairs, all_rids)
        result.closure_seconds = time.perf_counter() - start
    return result
