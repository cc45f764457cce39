"""Comparison filters — cheap upper bounds that avoid edit distances.

The paper's outlook (Sec. 5) recalls that "filters are quite effective to
avoid comparisons, especially with the edit distance operations" (their
ref. [17]) and asks how such filters interact with the windowing filter.
This module provides the classic ones:

* :func:`length_filter_bound` — an upper bound on normalized edit
  similarity from the length difference alone.
* :func:`bag_filter_bound` — a tighter bound from character multisets
  (bag distance is a lower bound of edit distance).
* :func:`bounded_levenshtein` — the edit distance capped at
  ``max_distance + 1``, refuted by the length bound before the kernel
  runs.
* :func:`filtered_edit_similarity` — the composition: apply the length
  bound, then the bit-parallel kernel of
  :mod:`repro.similarity.levenshtein`, returning 0.0 when the
  similarity falls below a floor.

The bag bound stays a registered upper bound of the comparison plane,
where it refutes whole weighted pairs before any φ runs (the plane
memoizes each string's :func:`char_bag` and compares bags with
:func:`bags_distance`); inside one edit evaluation it would cost more
than the kernel it guards.
"""

from __future__ import annotations

from .levenshtein import levenshtein_distance


def length_filter_bound(left: str, right: str) -> float:
    """Upper bound of ``levenshtein_similarity`` from lengths only.

    Edit distance is at least ``|len(a) - len(b)|``, so similarity is at
    most ``1 - |Δlen| / max_len``.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - abs(len(left) - len(right)) / longest


def bag_distance(left: str, right: str) -> int:
    """Bag distance: a cheap lower bound of the edit distance.

    ``max(|bag(a) - bag(b)|, |bag(b) - bag(a)|)`` where the difference is
    multiset difference: the positive and the negative parts of one
    per-character count balance.
    """
    balance: dict[str, int] = {}
    for char in left:
        balance[char] = balance.get(char, 0) + 1
    for char in right:
        balance[char] = balance.get(char, 0) - 1
    left_only = right_only = 0
    for count in balance.values():
        if count > 0:
            left_only += count
        else:
            right_only -= count
    return max(left_only, right_only)


def char_bag(value: str) -> dict[str, int]:
    """The character multiset of ``value``: character -> count."""
    counts: dict[str, int] = {}
    for char in value:
        counts[char] = counts.get(char, 0) + 1
    return counts


def bags_distance(left: dict[str, int], right: dict[str, int]) -> int:
    """:func:`bag_distance` from two :func:`char_bag` results.

    Summing ``max(0, a[c] - b[c])`` over each side's characters gives
    the same two multiset differences, hence the same integer.
    """
    left_only = right_only = 0
    for char, count in left.items():
        diff = count - right.get(char, 0)
        if diff > 0:
            left_only += diff
    for char, count in right.items():
        diff = count - left.get(char, 0)
        if diff > 0:
            right_only += diff
    return max(left_only, right_only)


def bag_filter_bound(left: str, right: str) -> float:
    """Upper bound of normalized edit similarity from bag distance."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - bag_distance(left, right) / longest


def bounded_levenshtein(left: str, right: str, max_distance: int) -> int:
    """Levenshtein distance, or ``max_distance + 1`` once it exceeds it.

    The length difference alone refutes the cap without running the
    kernel; otherwise the exact distance is capped.
    """
    if max_distance < 0:
        raise ValueError("max_distance must be >= 0")
    if abs(len(left) - len(right)) > max_distance:
        return max_distance + 1
    return min(levenshtein_distance(left, right), max_distance + 1)


def bounded_edit_similarity(left: str, right: str,
                            floor: float) -> tuple[float, bool]:
    """Normalized edit similarity, capped below ``floor``.

    Returns ``(value, exact)``: the exact ``levenshtein_similarity`` with
    ``exact=True`` whenever it is at least ``floor``; otherwise a
    *dominating upper bound* strictly below ``floor`` with
    ``exact=False``.  The bound is term-wise ≥ the exact similarity even
    in float arithmetic, which is what lets the comparison plane prune
    on it without changing decisions.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0, True
    # Epsilon guards the float boundary: 10 * (1 - 0.9) is 0.999...,
    # which must still allow distance 1 (similarity exactly 0.9).
    max_distance = int(longest * (1.0 - floor) + 1e-9)
    distance = bounded_levenshtein(left, right, max_distance)
    if distance > max_distance:
        # The true distance is at least max_distance + 1, so similarity
        # is at most this value — and 1 - x/n rounds monotonically.
        return 1.0 - (max_distance + 1) / longest, False
    return 1.0 - distance / longest, True


def filtered_edit_similarity(left: str, right: str, floor: float) -> float:
    """Normalized edit similarity, short-circuited below ``floor``.

    Returns the exact ``levenshtein_similarity`` when it is at least
    ``floor`` and ``0.0`` otherwise, without running the kernel when
    the length bound already refutes the floor.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError("floor must lie in [0, 1]")
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    if length_filter_bound(left, right) < floor:
        return 0.0
    # Epsilon guards the float boundary: 10 * (1 - 0.9) is 0.999...,
    # which must still allow distance 1 (similarity exactly 0.9).
    max_distance = int(longest * (1.0 - floor) + 1e-9)
    # A capped distance gives a value below floor; so can an exact one
    # the epsilon admitted when floor sits just above a grid value.
    value = 1.0 - bounded_levenshtein(left, right, max_distance) / longest
    return value if value >= floor else 0.0
