"""Edit-distance measures.

The paper's example φ function for object descriptions is the edit
distance ("which computes the minimum number of operations needed to
convert one string into another").  We provide plain Levenshtein, the
Damerau variant (adjacent transpositions count as one operation — the
Dirty XML Data Generator's *swap* error is exactly such a transposition),
and normalized similarities in ``[0, 1]``.

Both distances run on one exact bit-parallel kernel: Myers' algorithm
(JACM 46(3), 1999) in Hyyrö's edit-distance formulation, plus Hyyrö's
2003 transposition term for the restricted Damerau (optimal string
alignment) distance.  One DP column is held as two bit vectors of
vertical +1/-1 deltas, and one text character advances the whole column
in a constant number of integer operations.  Python ints are unbounded,
so the bit vectors grow with the pattern and there is no 64-character
fallback.
"""

from __future__ import annotations


def _edit_distance(left: str, right: str, transpositions: bool) -> int:
    """The exact Levenshtein (or OSA) distance, bit-parallel.

    The longer string becomes the pattern ``left`` (bit ``i`` stands
    for ``left[i]``) and the shorter the text ``right``, scanned one
    character per loop iteration.  ``vp``/``vn`` flag the rows whose
    vertical delta in the current column is +1/-1; ``score`` tracks the
    last row, i.e. the distance between ``left`` and the text consumed
    so far.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    if not right:
        return len(left)
    peq: dict[str, int] = {}
    bit = 1
    for char in left:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    get = peq.get
    vp = mask
    vn = 0
    d0 = 0
    eq_prev = 0
    score = len(left)
    for char in right:
        eq = get(char, 0)
        # d0 flags the rows whose diagonal delta is zero; the OSA term
        # adds the rows that close a transposition with the last column.
        if transpositions:
            d0 = ((((eq & vp) + vp) ^ vp) | eq | vn
                  | (((~d0 & eq) << 1) & eq_prev))
            eq_prev = eq
        else:
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        # Row 0 of every column grows by one: shift a +1 in.
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
    return score


def levenshtein_distance(left: str, right: str) -> int:
    """Minimum number of insertions, deletions, and substitutions."""
    return _edit_distance(left, right, False)


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein with adjacent transpositions as a single operation.

    The restricted (optimal string alignment) form: no substring is
    edited again after it was transposed.
    """
    return _edit_distance(left, right, True)


def levenshtein_similarity(left: str, right: str) -> float:
    """``1 - distance / max(len)`` — 1.0 for equal strings, 0.0 disjoint.

    Both strings empty counts as identical (similarity 1.0).
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


def damerau_similarity(left: str, right: str) -> float:
    """Normalized Damerau-Levenshtein similarity in ``[0, 1]``."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest
