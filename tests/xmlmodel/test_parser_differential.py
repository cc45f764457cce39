"""Differential tests: the regex tokenizer against the character-at-a-time
oracle in ``reference_scanner.py``.

For every input and every chunk size the tokenizer must produce the
oracle's event list, accept and reject the same inputs, and report an
error at the oracle's line and column with the oracle's message.  The
reference is the oracle's string scanner: the tokenizer runs one code
path for strings and files, so its errors do not depend on the chunk
size.  The oracle's own chunked scanner agrees with its string scanner
everywhere but one place, checked in :func:`test_oracle_chunked_agrees`:
it reported an unterminated construct at the last buffer boundary it
passed instead of where the construct's content starts.
"""

import io
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import XmlParseError
from repro.xmlmodel import iter_events, iter_events_stream
from repro.xmlmodel.parser import DEFAULT_CHUNK_SIZE
from tests.conftest import budget
from tests.xmlmodel.reference_scanner import (reference_events,
                                              reference_events_stream)

CHUNK_SIZES = (1, 2, 3, 7, DEFAULT_CHUNK_SIZE)

junk = st.text(max_size=200)
xmlish = st.text(alphabet=st.sampled_from(list("<>/=\"'&; abcdfx?!-[]")),
                 max_size=120)
# Name-rule edge cases: superscript two, one half and roman numeral
# twelve are alphanumeric but not letters (so not a name's first
# character); the titlecase digraph and the combining acute accent are
# a letter and a name character; ``:``, ``.`` and ``-`` are name
# punctuation; ``٣`` is a non-ASCII decimal digit.
edge_alphabet = list("²½Ⅻǅ́:.-_a1٣") + list("<>/=\"' &#;x")
edge_text = st.text(alphabet=st.sampled_from(edge_alphabet), max_size=80)
# Bare, as the content of a root and as the rest of a tag.
edge = st.one_of(edge_text, edge_text.map(lambda text: f"<r>{text}</r>"),
                 edge_text.map(lambda text: "<" + text))


@st.composite
def documents(draw):
    """A document with random names, attributes, text, comments, CDATA
    and PIs, then possibly one character inserted or deleted.  An
    attribute sometimes follows the tag name or the previous value with
    no space."""
    starts = st.sampled_from(list("abǅ_:") * 8 + list("²½Ⅻ1.-́"))
    names = st.builds(operator.add, starts, st.text(
        alphabet=st.sampled_from(list("abǅ²½Ⅻ_:.-1́")), max_size=3))
    values = st.lists(st.sampled_from(
        list("ab <>;'\"#x1\n") * 3 + ["&amp;", "&#x41;", "&#65;", "&bad;", "&"]),
        max_size=6).map("".join)
    space = st.sampled_from(["", " ", "\n", "\t ", "\r\n"])

    def element(depth):
        name = draw(names)
        attributes = "".join(
            f"{draw(space)}{draw(names)}{draw(space)}={draw(space)}"
            f"{quote}{draw(values).replace(quote, '')}{quote}"
            for quote in draw(st.lists(st.sampled_from(["'", '"']), max_size=3)))
        if depth > 2 or draw(st.booleans()):
            return f"<{name}{attributes}{draw(space)}/>"
        parts = []
        for _ in range(draw(st.integers(0, 3))):
            parts.append(draw(st.one_of(
                st.just("x&amp;y"), st.just("<!-- c -->"), st.just("<![CDATA[<]]>"),
                st.just("<?pi d?>"), values.map(lambda v: v.replace("<", "")),
                st.just(None))) or element(depth + 1))
        return f"<{name}{attributes}>{''.join(parts)}</{name}{draw(space)}>"

    text = draw(st.sampled_from(["", "<?xml version='1.0'?>\n", "<!DOCTYPE r [<!ENTITY e 'x'>]>"]))
    text += element(0) + draw(st.sampled_from(["", "\n", "<!-- tail -->"]))
    if text and draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(list("<>/=\"'&²a "))) + text[at:]
    return text


def _outcome(events):
    try:
        return "ok", list(events)
    except XmlParseError as error:
        message = str(error).rsplit(" at line ", 1)[0]
        return "error", message, error.line, error.column


def _stream(scan, data: str, chunk_size: int):
    return scan(io.StringIO(data), chunk_size)


def check_against_oracle(data: str) -> None:
    expected = _outcome(reference_events(data))
    assert _outcome(iter_events(data)) == expected, "string input"
    for chunk_size in CHUNK_SIZES:
        got = _outcome(_stream(iter_events_stream, data, chunk_size))
        assert got == expected, f"chunk size {chunk_size}"


@pytest.mark.parametrize("data", [
    "<a x='1'>pre<b/><![CDATA[raw<>]]>&amp;post</a>",
    "\x0c<?pi?><a/>",             # whitespace str.strip() knows, before the root
    "<a>\n<b x='1' x='2'/></a>",  # duplicate attribute after a newline
    "<a x='&bad;' y=1/>",        # the bad reference is reported first
    "<²/>", "<a ½='1'/>", "</Ⅻ>", "<ǅ́:.-/>", "<_:a٣/>",
    "<a b='1'c='2'/>",           # no space between attributes
    "<ab='1'/>", "<a:b='1'/>",   # no space after the tag name
    "<movieyear='1'></movie>",
    "<a\n  x = \"1\"\n/>",
    "<!-- unterminated",
    "<a><![CDATA[no end</a>",
    "<a x='unterminated/>",
    "<!DOCTYPE a",
    "<a></a >junk",
])
def test_pinned_inputs(data):
    check_against_oracle(data)


@given(data=junk)
@settings(max_examples=budget(200), deadline=None)
def test_random_text(data):
    check_against_oracle(data)


@given(data=xmlish)
@settings(max_examples=budget(300), deadline=None)
@example(data="<a b='&'>")
@example(data="<a\n><![CDATA[")
def test_xmlish_text(data):
    check_against_oracle(data)


@given(data=edge)
@settings(max_examples=budget(300), deadline=None)
@example(data="<a²='1'/>")
@example(data="<a ٣='1'/>")
def test_name_edge_cases(data):
    check_against_oracle(data)


@given(data=documents())
@settings(max_examples=budget(300), deadline=None)
def test_documents(data):
    check_against_oracle(data)


def _unterminated(outcome) -> bool:
    return outcome[0] == "error" and outcome[1].startswith("unterminated construct")


@given(data=st.one_of(xmlish, documents()))
@settings(max_examples=budget(100), deadline=None)
def test_oracle_chunked_agrees(data):
    """The oracle's chunked scanner matches its string scanner (and so the
    tokenizer) on events and acceptance, and on error places except for
    unterminated constructs."""
    expected = _outcome(reference_events(data))
    for chunk_size in CHUNK_SIZES:
        got = _outcome(_stream(reference_events_stream, data, chunk_size))
        if _unterminated(expected):
            assert got[:2] == expected[:2]
        else:
            assert got == expected
