"""Differential battery: the bit-parallel edit kernel ≡ the textbook DP.

Every edit distance in the package runs on one Myers/Hyyrö kernel over
Python-int bit vectors.  These properties hold it to the full-matrix
recurrences of :mod:`tests.similarity.oracle` on the inputs that break
bit-parallel code: empty strings, patterns longer than one machine word
(64) and than a few of them (200+), long runs of one character (carry
chains), transposition-dense edits, and non-ASCII and astral code
points.  The example budget comes from the loaded Hypothesis profile
(see ``tests/conftest.py``).
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.similarity import (bounded_levenshtein, damerau_levenshtein_distance,
                              levenshtein_distance)
from tests.similarity.conftest import adversarial_text
from tests.similarity.oracle import dp_levenshtein, dp_osa

#: A small alphabet keeps matches (and so carries) frequent.
dense_text = st.text(alphabet="abc", max_size=40)

#: Strings past one 64-bit word and past 200 characters.
long_text = st.text(alphabet="abcd", min_size=65, max_size=260)

#: Runs of one character: every bit set in the pattern's match vector.
repeated_text = st.builds(lambda char, count, tail: char * count + tail,
                          st.sampled_from("aé\U0001F600"),
                          st.integers(min_value=0, max_value=130),
                          st.text(alphabet="ab\U0001F600", max_size=6))

any_text = st.one_of(dense_text, adversarial_text, long_text, repeated_text)


@st.composite
def transposed_pair(draw):
    """A string and a copy with several adjacent characters swapped."""
    base = draw(st.text(alphabet="abcé\U0001F600", min_size=2, max_size=90))
    chars = list(base)
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        index = draw(st.integers(min_value=0, max_value=len(chars) - 2))
        chars[index], chars[index + 1] = chars[index + 1], chars[index]
    return base, "".join(chars)


class TestLevenshteinKernel:
    @given(left=any_text, right=any_text)
    @example(left="", right="")
    @example(left="", right="a" * 200)
    @example(left="a" * 64, right="a" * 65)
    @example(left="ab" * 100, right="ba" * 100)
    @example(left="\U0001F600x", right="x\U0001F600")
    def test_equals_textbook_dp(self, left, right):
        assert levenshtein_distance(left, right) == dp_levenshtein(left, right)

    @given(left=any_text, right=any_text)
    def test_symmetric(self, left, right):
        assert levenshtein_distance(left, right) \
            == levenshtein_distance(right, left)


class TestOsaKernel:
    @given(left=any_text, right=any_text)
    @example(left="ca", right="abc")
    @example(left="", right="ab")
    @example(left="ab" * 40, right="ba" * 40)
    def test_equals_textbook_dp(self, left, right):
        assert damerau_levenshtein_distance(left, right) == dp_osa(left, right)

    @given(pair=transposed_pair())
    def test_transposition_dense_pairs(self, pair):
        left, right = pair
        assert damerau_levenshtein_distance(left, right) == dp_osa(left, right)
        assert damerau_levenshtein_distance(right, left) == dp_osa(left, right)

    @given(left=any_text, right=any_text)
    def test_never_above_levenshtein(self, left, right):
        assert damerau_levenshtein_distance(left, right) \
            <= levenshtein_distance(left, right)


class TestBoundedLevenshtein:
    @given(left=any_text, right=any_text,
           cap=st.integers(min_value=0, max_value=300))
    @example(left="", right="", cap=0)
    @example(left="a" * 70, right="", cap=69)
    @example(left="abc", right="abd", cap=0)
    def test_is_exact_distance_capped(self, left, right, cap):
        exact = dp_levenshtein(left, right)
        assert bounded_levenshtein(left, right, cap) == min(exact, cap + 1)

    @given(left=dense_text, right=dense_text)
    def test_every_cap(self, left, right):
        exact = dp_levenshtein(left, right)
        for cap in range(max(len(left), len(right)) + 2):
            assert bounded_levenshtein(left, right, cap) == min(exact, cap + 1)


class TestWindowTraffic:
    """Orders the window phase feeds the kernel: repeated anchors, sorted
    neighbors sharing prefixes, equal strings, switching patterns."""

    WORDS = ["", "a", "ab", "abc", "abd", "abcdef", "abcdeg", "xyz",
             "casablanca", "casablanka", "casa", "blanca"]

    def test_exact_distances_in_any_order(self):
        for pattern in self.WORDS:
            for text in self.WORDS:
                assert levenshtein_distance(text, pattern) \
                    == dp_levenshtein(text, pattern), (text, pattern)

    def test_sorted_texts_against_one_anchor(self):
        for text in sorted(self.WORDS):
            assert levenshtein_distance(text, "casablanca") \
                == dp_levenshtein(text, "casablanca")

    def test_equal_strings_between_neighbors(self):
        assert levenshtein_distance("casab", "casablanca") == 5
        assert levenshtein_distance("casablanca", "casablanca") == 0
        assert levenshtein_distance("casaz", "casablanca") \
            == dp_levenshtein("casaz", "casablanca")

    def test_pattern_switch(self):
        assert levenshtein_distance("abc", "abd") == 1
        assert levenshtein_distance("abc", "xbd") == 2
        assert levenshtein_distance("", "xbd") == 3
