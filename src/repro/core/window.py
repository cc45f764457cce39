"""The sliding-window kernel of the duplicate-detection phase.

SXNM's detection phase (paper Sec. 3.4) slides a fixed window over a
key-sorted GK table and compares each row with its ``window - 1``
predecessors.  Every windowed neighborhood in the codebase is built
from three pieces:

* :func:`window_pairs` — the one sliding loop: ``(predecessor, anchor)``
  pairs over any row iterable, oldest predecessor first;
* :func:`de_window_pairs` — the duplicate-elimination variant over a
  re-iterable sorted source: equal-key group pairs first, then the
  window pairs over the group representatives;
* :func:`touched_window_pairs` — the incremental filter: only window
  pairs with at least one new (or perturbed) member;
* :func:`compare_pairs` — the one compare loop: classifies candidate
  pairs one at a time and collects the confirmed ones.

The generators are lazy, so :func:`compare_pairs` checks ``skip_known``
against pairs confirmed earlier *in the same pass* too — a DE pass's
group pairs are settled before its window pairs are generated.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter
from typing import Any, TypeVar

from ..similarity import filtered_edit_similarity, levenshtein_similarity
from .gk import GkRow, GkTable
from .simmeasure import PairVerdict

Row = TypeVar("Row")


def window_pairs(rows: Iterable[Row], window: int) -> Iterator[tuple[Row, Row]]:
    """``(predecessor, anchor)`` pairs of a sliding window over ``rows``.

    Keeps a deque of the last ``window - 1`` rows; each arriving anchor
    is paired with them oldest-first.  ``rows`` may be any iterable — a
    sorted list, or a merged stream that is never materialized.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    recent: deque[Row] = deque(maxlen=window - 1)
    for row in rows:
        for other in recent:
            yield other, row
        recent.append(row)


def de_window_pairs(rows: Iterable[GkRow], key_index: int,
                    window: int) -> Iterator[tuple[GkRow, GkRow]]:
    """Duplicate-elimination candidate pairs (DE-SNM idea, paper Sec. 5).

    ``rows`` is a *re-iterable* ``(key, eid)``-sorted source (a list, or
    a view re-merging spilled runs); it is walked twice.  The first walk
    yields, per group of rows sharing an identical non-empty key,
    ``(first, member)`` for every later member — equal keys are the
    cheapest duplicates to confirm.  The second walk yields the window
    pairs over one representative per key value.  Rows whose key is
    empty carry no grouping evidence (the key generator found nothing to
    extract), so each one enters the window individually.  Sorted order
    makes every group contiguous.
    """
    if window < 2:
        raise ValueError("window size must be >= 2")
    group: list[GkRow] = []
    for row in rows:
        key_value = row.keys[key_index]
        if not key_value:
            continue
        if group and key_value == group[0].keys[key_index]:
            group.append(row)
            continue
        for member in group[1:]:
            yield group[0], member
        group = [row]
    for member in group[1:]:
        yield group[0], member

    def representatives() -> Iterator[GkRow]:
        last_key: str | None = None
        for row in rows:
            key_value = row.keys[key_index]
            if not key_value:
                yield row
            elif key_value != last_key:
                last_key = key_value
                yield row

    yield from window_pairs(representatives(), window)


def touched_window_pairs(order: list[tuple[str, int]], window: int,
                         touched: set[int]) -> Iterator[tuple[int, int]]:
    """Window pairs of an incremental session that need comparing.

    ``order`` is a sorted ``(key, id)`` list; yields ``(smaller id,
    larger id)`` for every window pair with at least one ``touched``
    member — neighborhoods of untouched members only were examined in
    an earlier batch.
    """
    for (_, left), (_, right) in window_pairs(order, window):
        if left in touched or right in touched:
            yield (left, right) if left < right else (right, left)


def compare_pairs(candidates: Iterable[tuple[Any, Any]],
                  compare: Callable[[Any, Any], Any],
                  pairs: set[tuple[int, int]],
                  skip_known: bool = True, *,
                  ident: Callable[[Any], int] = attrgetter("eid"),
                  is_duplicate: Callable[[Any], bool]
                  = attrgetter("is_duplicate")) -> int:
    """Classify candidate pairs one at a time; returns the comparison count.

    Each ``(left, right)`` pair is identified by its two ids (``ident``,
    the eid by default), smaller first.  With ``skip_known`` (default) a
    pair already in ``pairs`` is not compared again — the multi-pass
    method unions pair sets, so re-confirming is pure waste.  The check
    runs as each pair is pulled from ``candidates``, so a pair confirmed
    earlier in the same pass is skipped too.  ``compare(left, right)``
    returns a verdict; confirmed pairs (``is_duplicate(verdict)``) are
    added to ``pairs``.
    """
    comparisons = 0
    for left, right in candidates:
        low, high = ident(left), ident(right)
        pair = (low, high) if low < high else (high, low)
        if skip_known and pair in pairs:
            continue
        comparisons += 1
        if is_duplicate(compare(left, right)):
            pairs.add(pair)
    return comparisons


def window_pass(table: GkTable, key_index: int, window: int,
                compare: Callable[[GkRow, GkRow], PairVerdict],
                pairs: set[tuple[int, int]],
                skip_known: bool = True) -> int:
    """One sliding-window pass over ``table`` sorted by one key.

    Confirmed duplicate eid pairs are added to ``pairs`` (smaller eid
    first); returns the number of comparisons made.
    """
    return compare_pairs(window_pairs(table.sorted_by_key(key_index), window),
                         compare, pairs, skip_known)


def de_window_pass(table: GkTable, key_index: int, window: int,
                   compare: Callable[[GkRow, GkRow], PairVerdict],
                   pairs: set[tuple[int, int]]) -> int:
    """One duplicate-elimination pass (:func:`de_window_pairs`);
    returns the comparison count."""
    return compare_pairs(
        de_window_pairs(table.sorted_by_key(key_index), key_index, window),
        compare, pairs)


def key_similarity(left: str, right: str) -> float:
    """Similarity of two sort keys (edit similarity; empty keys match)."""
    return levenshtein_similarity(left, right)


def keys_similar(left: str, right: str, floor: float) -> bool:
    """Decision-only form of ``key_similarity(left, right) >= floor``.

    Routed through the filtered edit path: keys clearly below the floor
    are refuted by the length bound and never reach the edit kernel.
    Such keys dominate adaptive-pass cost, since every extension attempt
    ends on one.
    """
    if floor <= 0.0:
        return True
    if floor > 1.0:
        return False
    return filtered_edit_similarity(left, right, floor) >= floor


def adaptive_window_pass(table: GkTable, key_index: int,
                         compare: Callable[[GkRow, GkRow], object],
                         pairs: set[tuple[int, int]],
                         min_window: int = 2, max_window: int = 20,
                         key_similarity_floor: float = 0.6) -> int:
    """One adaptive pass (Lehti & Fankhauser); returns the comparison count.

    Every record is compared to at least ``min_window - 1`` predecessors;
    the neighborhood keeps extending backwards while the predecessor's
    key is at least ``key_similarity_floor``-similar to the record's key,
    up to ``max_window - 1`` predecessors.
    """
    if not 2 <= min_window <= max_window:
        raise ValueError("need 2 <= min_window <= max_window")
    ordered = table.sorted_by_key(key_index)

    def candidates() -> Iterator[tuple[GkRow, GkRow]]:
        for index, row in enumerate(ordered):
            reach = 1
            while reach < max_window and index - reach >= 0:
                if reach >= min_window - 1:
                    predecessor = ordered[index - reach]
                    if not keys_similar(predecessor.keys[key_index],
                                        row.keys[key_index],
                                        key_similarity_floor):
                        break
                reach += 1
            for other_index in range(max(0, index - reach + 1), index):
                yield ordered[other_index], row

    return compare_pairs(candidates(), compare, pairs)


def multipass(table: GkTable, window: int,
              compare: Callable[[GkRow, GkRow], PairVerdict],
              key_indices: list[int] | None = None,
              duplicate_elimination: bool = False,
              ) -> tuple[set[tuple[int, int]], int]:
    """Run one window pass per key; returns (pairs, total comparisons).

    With ``duplicate_elimination`` each pass uses :func:`de_window_pass`
    instead of the plain window.
    """
    pairs: set[tuple[int, int]] = set()
    comparisons = 0
    indices = key_indices if key_indices is not None else list(range(table.key_count))
    for key_index in indices:
        if duplicate_elimination:
            comparisons += de_window_pass(table, key_index, window, compare,
                                          pairs)
        else:
            comparisons += window_pass(table, key_index, window, compare,
                                       pairs)
    return pairs, comparisons
