"""Textbook edit-distance DPs: the test oracle for the bit-parallel kernel.

Nothing in ``src/`` computes an edit distance this way any more; these
full-matrix recurrences exist only so the tests can hold the kernel in
:mod:`repro.similarity.levenshtein` to the definition.
"""


def dp_levenshtein(left: str, right: str) -> int:
    """Wagner–Fischer: insertions, deletions, substitutions cost one."""
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        for col, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(min(previous[col] + 1,
                               current[col - 1] + 1,
                               previous[col - 1] + cost))
        previous = current
    return previous[-1]


def dp_osa(left: str, right: str) -> int:
    """Optimal string alignment: Levenshtein plus adjacent transpositions,
    no substring edited twice (the restricted Damerau distance)."""
    rows, cols = len(left) + 1, len(right) + 1
    matrix = [[0] * cols for _ in range(rows)]
    for row in range(rows):
        matrix[row][0] = row
    for col in range(cols):
        matrix[0][col] = col
    for row in range(1, rows):
        for col in range(1, cols):
            cost = 0 if left[row - 1] == right[col - 1] else 1
            best = min(matrix[row - 1][col] + 1,
                       matrix[row][col - 1] + 1,
                       matrix[row - 1][col - 1] + cost)
            if (row > 1 and col > 1 and left[row - 1] == right[col - 2]
                    and left[row - 2] == right[col - 1]):
                best = min(best, matrix[row - 2][col - 2] + 1)
            matrix[row][col] = best
    return matrix[-1][-1]
