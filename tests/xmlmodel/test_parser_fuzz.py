"""Robustness fuzzing for the XML parser.

The parser must never hang, crash with anything but
:class:`~repro.errors.XmlParseError`, or accept input it cannot
round-trip.  Hypothesis drives both random junk and structured
near-XML at it.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlParseError
from repro.xmlmodel import parse, serialize
from tests.conftest import budget

junk = st.text(max_size=200)
xmlish_alphabet = st.sampled_from(list("<>/=\"'&; abcdfx?!-[]"))
xmlish = st.text(alphabet=xmlish_alphabet, max_size=120)


def _try_parse(data: str):
    try:
        return parse(data)
    except XmlParseError:
        return None


class TestParserRobustness:
    @given(data=junk)
    @settings(max_examples=budget(300))
    def test_random_text_never_crashes(self, data):
        _try_parse(data)

    @given(data=xmlish)
    @settings(max_examples=budget(500))
    def test_xmlish_text_never_crashes(self, data):
        _try_parse(data)

    @given(data=xmlish)
    @settings(max_examples=budget(300))
    def test_accepted_input_round_trips(self, data):
        document = _try_parse(data)
        if document is None:
            return
        again = parse(serialize(document))
        assert again.root.structurally_equal(document.root)

    @given(prefix=st.text(alphabet=string.ascii_letters, max_size=10),
           data=xmlish)
    @settings(max_examples=budget(200))
    def test_wrapped_content_parses_or_raises_cleanly(self, prefix, data):
        _try_parse(f"<{prefix or 'a'}>{data}</{prefix or 'a'}>")

    @given(depth=st.integers(1, 400))
    @settings(max_examples=budget(20))
    def test_deep_nesting(self, depth):
        data = "<a>" * depth + "x" + "</a>" * depth
        document = parse(data)
        count = sum(1 for _ in document.iter())
        assert count == depth

    @given(count=st.integers(1, 300))
    @settings(max_examples=budget(20))
    def test_wide_documents(self, count):
        data = "<r>" + "<c/>" * count + "</r>"
        document = parse(data)
        assert len(document.root.children) == count
