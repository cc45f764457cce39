"""A from-scratch XML parser built on one regex tokenizer.

:func:`parse` / :func:`parse_file` build an
:class:`~repro.xmlmodel.node.XmlDocument` tree; :func:`iter_events` and
its file variants yield SAX-style ``start``/``text``/``end`` events, which
make the single pass of SXNM key generation literal.

One compiled pattern consumes a whole tag per match: a start tag with its
name and every attribute, or an end tag.  Text, comments, CDATA sections
and PIs are found with ``str.find``.  Strings and files share one buffered
scanner: a string is a buffer already at end of input; a file refills it
``chunk_size`` characters at a time when a match fails or a search runs
into the buffer's end, so memory stays bounded by ``chunk_size`` plus the
largest single construct.

Malformed input is diagnosed only after the tokenizer fails on a tag: the
grammar walks that tag one character at a time (the only such code) and
raises :class:`~repro.errors.XmlParseError` at the first offending line
and column, the same place for any chunk size.  The grammar covers
elements, quoted attributes, character data, comments, CDATA, PIs, a
skipped XML declaration and DOCTYPE, and the five predefined entities plus
character references; namespace prefixes stay part of tag names.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple

from ..errors import XmlParseError
from .node import XmlDocument, XmlElement

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"
_WHITESPACE = (" ", "\t", "\r", "\n")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


def is_xml_name(text: str) -> bool:
    """True iff ``text`` is a name this parser would accept — including
    namespace-prefixed names like ``db:movie``."""
    if not text or not _is_name_start(text[0]):
        return False
    return all(_is_name_char(char) for char in text[1:])


# ``[\w:.-]`` is exactly ``_is_name_char``.  ``[^\W\d]|:`` admits every
# character ``_is_name_start`` does, and beyond them only non-ASCII
# numerics that are not letters (``²``, ``½``, ``Ⅻ``), which the event
# loop turns away by testing a non-ASCII first character.  The lookahead
# keeps a name from backing off: an attribute may follow a tag name with
# no space, so ``<ab='1'/>`` must not read as ``<a b='1'/>``.
_SPACE = r"[ \t\r\n]*"
_NAME = r"(?:[^\W\d]|:)[\w:.-]*(?![\w:.-])"


def _attribute(group: str) -> str:
    """One attribute; ``group`` is ``""`` (capture name and value) or ``"?:"``."""
    return (rf"{_SPACE}({group}{_NAME}){_SPACE}={_SPACE}"
            rf"(?:\"({group}[^\"]*)\"|'({group}[^']*)')")


# Groups: closing slash (end tags only), name, attribute text and the
# self-closing slash (start tags only).
_TAG = re.compile(rf"<(/)?({_NAME})(?(1){_SPACE}>|((?:{_attribute('?:')})*){_SPACE}(/?)>)")
_ATTRIBUTES = re.compile(_attribute(""))
_SPACE_RUN = re.compile(_SPACE)
_ANGLE = re.compile("[<>]")


class XmlEvent(NamedTuple):
    """One streaming parse event.

    ``kind`` is ``"start"`` (value = ``(tag, attributes)``), ``"text"``
    (value = character data), or ``"end"`` (value = tag).
    """

    kind: str
    value: object


DEFAULT_CHUNK_SIZE = 64 * 1024


class _Scanner:
    """The input as one buffer, with absolute line/column tracking.

    A string is a buffer already at end of input.  A file ``handle`` is
    read at most ``chunk_size`` characters at a time: :meth:`more` drops
    the consumed prefix and appends one chunk.
    """

    def __init__(self, data: str = "", handle=None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.buffer = data
        self.pos = 0
        self.handle = handle
        self.chunk_size = max(1, chunk_size)
        self.eof = handle is None
        self.offset = 0             # absolute index of buffer[0] in the input
        self._newlines_before = 0   # newlines in the dropped prefix
        self._last_newline_abs = -1  # absolute index of the last one

    def more(self) -> bool:
        """Drop the consumed prefix and append one chunk; False at EOF."""
        if self.eof:
            return False
        chunk = self.handle.read(self.chunk_size)
        if not chunk:
            self.eof = True
            return False
        buffer, pos = self.buffer, self.pos
        count = buffer.count("\n", 0, pos)
        if count:
            self._newlines_before += count
            self._last_newline_abs = self.offset + buffer.rfind("\n", 0, pos)
        self.offset += pos
        self.buffer = buffer[pos:] + chunk
        self.pos = 0
        return True

    def location(self) -> tuple[int, int]:
        """1-based (line, column) of the current position."""
        line = self._newlines_before + self.buffer.count("\n", 0, self.pos) + 1
        last_rel = self.buffer.rfind("\n", 0, self.pos)
        last_abs = (self.offset + last_rel if last_rel >= 0
                    else self._last_newline_abs)
        return line, (self.offset + self.pos) - last_abs

    def error(self, message: str) -> XmlParseError:
        line, column = self.location()
        return XmlParseError(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= len(self.buffer) and not self.more()

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if it appears at the current position."""
        while len(self.buffer) - self.pos < len(literal) and self.more():
            pass
        if self.buffer.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def skip_whitespace(self) -> None:
        while True:
            self.pos = _SPACE_RUN.match(self.buffer, self.pos).end()
            if self.pos < len(self.buffer) or not self.more():
                return

    def read_text(self) -> str:
        """Read character data up to (not including) the next ``<``, or
        to the end of input."""
        parts: list[str] = []
        while True:
            end = self.buffer.find("<", self.pos)
            if end >= 0:
                parts.append(self.buffer[self.pos:end])
                self.pos = end
                return "".join(parts)
            parts.append(self.buffer[self.pos:])
            self.pos = len(self.buffer)
            if not self.more():
                return "".join(parts)

    def read_until(self, terminator: str) -> str:
        """Read up to (not including) ``terminator``; consume the terminator.

        An unterminated construct is reported where its content starts.
        """
        end = self.buffer.find(terminator, self.pos)
        if end >= 0:
            chunk = self.buffer[self.pos:end]
            self.pos = end + len(terminator)
            return chunk
        line, column = self.location()
        keep = len(terminator) - 1
        parts: list[str] = []
        while True:
            # Keep a suffix that may begin the terminator, release the rest.
            split = max(self.pos, len(self.buffer) - keep)
            parts.append(self.buffer[self.pos:split])
            self.pos = split
            if not self.more():
                raise XmlParseError(
                    f"unterminated construct, expected {terminator!r}",
                    line=line, column=column)
            end = self.buffer.find(terminator, self.pos)
            if end >= 0:
                parts.append(self.buffer[self.pos:end])
                self.pos = end + len(terminator)
                return "".join(parts)

    def skip_misc(self) -> None:
        """Skip whitespace, the XML declaration, DOCTYPE, comments and PIs."""
        while True:
            self.skip_whitespace()
            if self.match("<?"):
                self.read_until("?>")
            elif self.match("<!--"):
                self.read_until("-->")
            elif self.match("<!DOCTYPE"):
                # Consume until the matching '>' (internal subsets use brackets).
                depth = 1
                while depth:
                    angle = _ANGLE.search(self.buffer, self.pos)
                    if angle is None:
                        self.pos = len(self.buffer)
                        if not self.more():
                            raise self.error("unterminated DOCTYPE")
                        continue
                    depth += 1 if angle.group() == "<" else -1
                    self.pos = angle.end()
            else:
                return

    def tag(self, rejected: bool = False) -> re.Match:
        """Walk the tag at ``pos`` by the grammar, one character at a time,
        and raise its first error.  A tag that walks cleanly only ran past
        the buffer's end: it is buffered whole now and its match returned.
        ``rejected`` (names or attributes turned down) means it must raise.
        """
        end = self._walk_tag()
        match = None if rejected else _TAG.match(self.buffer, self.pos)
        if match is None or match.end() != self.pos + end:
            raise self.error("the tokenizer and the grammar disagree on this tag")
        return match

    def _char(self, k: int) -> str:
        """The character ``k`` past ``pos``, reading on as needed; ``""`` at EOF."""
        while self.pos + k >= len(self.buffer):
            if not self.more():
                return ""
        return self.buffer[self.pos + k]

    def _error_at(self, k: int, message: str) -> XmlParseError:
        self.pos += k
        return self.error(message)

    def _walk_space(self, k: int) -> int:
        while self._char(k) in _WHITESPACE:
            k += 1
        return k

    def _walk_name(self, k: int) -> int:
        char = self._char(k)
        if not char or not _is_name_start(char):
            raise self._error_at(k, "expected an XML name")
        k += 1
        while (char := self._char(k)) and _is_name_char(char):
            k += 1
        return k

    def _walk_tag(self) -> int:
        """The tag's length past ``pos``; raises its first error."""
        closing = self._char(1) == "/"
        k = self._walk_name(2 if closing else 1)
        seen: set[str] = set()
        while not closing:
            k = self._walk_space(k)
            if self._char(k) in (">", "/", "?", ""):
                break
            start = k
            k = self._walk_name(k)
            name = self.buffer[self.pos + start:self.pos + k]
            k = self._walk_space(k)
            if self._char(k) != "=":
                raise self._error_at(k, "expected '='")
            k = self._walk_space(k + 1)
            quote = self._char(k)
            if quote not in ("'", '"'):
                raise self._error_at(k, "attribute value must be quoted")
            start = k = k + 1
            while (end := self.buffer.find(quote, self.pos + k)) < 0:
                k = len(self.buffer) - self.pos
                if not self.more():
                    raise self._error_at(
                        start, f"unterminated construct, expected {quote!r}")
            value = self.buffer[self.pos + start:end]
            k = end - self.pos + 1
            if name in seen:
                raise self._error_at(k, f"duplicate attribute {name!r}")
            seen.add(name)
            self.pos += k
            _decode_entities(value, self)
            self.pos -= k
        k = self._walk_space(k)
        if not closing and self._char(k) == "/" and self._char(k + 1) == ">":
            return k + 2
        if self._char(k) != ">":
            raise self._error_at(k, "expected '>'")
        return k + 1


def _decode_entities(raw: str, scanner) -> str:
    """Replace entity and character references in ``raw``."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            break
        parts.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise scanner.error("unterminated entity reference")
        entity = raw[amp + 1:semi]
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                parts.append(chr(int(entity[2:], 16)))
            except ValueError:
                raise scanner.error(f"bad character reference &{entity};") from None
        elif entity.startswith("#"):
            try:
                parts.append(chr(int(entity[1:])))
            except ValueError:
                raise scanner.error(f"bad character reference &{entity};") from None
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise scanner.error(f"unknown entity &{entity};")
        index = semi + 1
    return "".join(parts)


def _attributes(text: str, scanner: _Scanner) -> dict[str, str] | None:
    """The attributes of a matched start tag, or ``None`` when a name is
    repeated or malformed or a value holds a bad reference."""
    attributes: dict[str, str] = {}
    for name, double, single in _ATTRIBUTES.findall(text):
        if name in attributes or name[0] > "\x7f" and not name[0].isalpha():
            return None
        value = double or single
        if "&" in value:
            try:
                value = _decode_entities(value, scanner)
            except XmlParseError:
                return None
        attributes[name] = value
    return attributes


def iter_events(data: str) -> Iterator[XmlEvent]:
    """Yield ``start``/``text``/``end`` events for ``data``.

    Text events carry entity-decoded character data, with CDATA content
    passed through verbatim.  Whitespace-only text between elements is
    still reported; consumers decide whether it is significant.
    """
    return _scan_events(_Scanner(data))


def iter_events_stream(handle,
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[XmlEvent]:
    """Yield events for the open text ``handle`` without slurping it.

    The handle is read at most ``chunk_size`` characters at a time and
    only a bounded window is buffered, so event streams over files much
    larger than memory are actually incremental.
    """
    return _scan_events(_Scanner(handle=handle, chunk_size=chunk_size))


def _scan_events(scanner: _Scanner) -> Iterator[XmlEvent]:
    # ``event`` builds an XmlEvent without its Python-level constructor.
    event, tag_match = tuple.__new__, _TAG.match
    scanner.skip_misc()
    if scanner.at_end():
        raise scanner.error("document has no root element")

    open_tags: list[str] = []
    while True:
        buffer, pos = scanner.buffer, scanner.pos
        if pos >= len(buffer):
            if scanner.more():
                continue
            if open_tags:
                raise scanner.error(f"unexpected end of input inside <{open_tags[-1]}>")
            raise scanner.error("document has no root element")

        if buffer[pos] != "<":
            end = buffer.find("<", pos)
            if end >= 0:
                raw = buffer[pos:end]
                scanner.pos = end
            else:
                raw = scanner.read_text()
            if open_tags:
                if "&" in raw:
                    raw = _decode_entities(raw, scanner)
                yield event(XmlEvent, ("text", raw))
            elif raw.strip():
                raise scanner.error("character data outside the root element")
            continue

        match = tag_match(buffer, pos)
        if match is None:
            if scanner.match("<!--"):
                scanner.read_until("-->")
                continue
            if scanner.match("<![CDATA["):
                if not open_tags:
                    raise scanner.error("CDATA outside the root element")
                yield event(XmlEvent, ("text", scanner.read_until("]]>")))
                continue
            if scanner.match("<?"):
                scanner.read_until("?>")
                continue
            match = scanner.tag()
        closing, name, text, empty = match.groups()
        if name[0] > "\x7f" and not name[0].isalpha():
            scanner.tag(rejected=True)

        if closing:
            scanner.pos = match.end()
            if not open_tags:
                raise scanner.error(f"closing tag </{name}> with no open element")
            expected = open_tags.pop()
            if name != expected:
                raise scanner.error(f"mismatched closing tag </{name}>, expected </{expected}>")
            yield event(XmlEvent, ("end", name))
        else:
            attributes = _attributes(text, scanner) if text else {}
            if attributes is None:
                scanner.tag(rejected=True)
            scanner.pos = match.end()
            yield event(XmlEvent, ("start", (name, attributes)))
            if not empty:
                open_tags.append(name)
                continue
            yield event(XmlEvent, ("end", name))
        if not open_tags:
            # After the root closes, only misc content may follow.
            scanner.skip_misc()
            if not scanner.at_end():
                raise scanner.error("content after the root element")
            return


def parse(data: str) -> XmlDocument:
    """Parse ``data`` into an :class:`XmlDocument` and assign element ids."""
    return _build_document(iter_events(data))


def _build_document(events: Iterator[XmlEvent]) -> XmlDocument:
    root: XmlElement | None = None
    stack: list[XmlElement] = []
    last_closed: XmlElement | None = None

    for event in events:
        if event.kind == "start":
            tag, attributes = event.value  # type: ignore[misc]
            element = XmlElement(tag, attributes=attributes)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            stack.append(element)
            last_closed = None
        elif event.kind == "text":
            text = str(event.value)
            current = stack[-1]
            if last_closed is not None and last_closed.parent is current:
                last_closed.tail = (last_closed.tail or "") + text
            else:
                current.text = (current.text or "") + text
        else:  # end
            last_closed = stack.pop()

    assert root is not None  # iter_events guarantees a root or raises
    document = XmlDocument(root)
    document.assign_eids()
    return document


def parse_file(path: str,
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> XmlDocument:
    """Read ``path`` (UTF-8) incrementally and parse it into a document."""
    with open(path, encoding="utf-8") as handle:
        return _build_document(iter_events_stream(handle, chunk_size))


def iter_events_file(path: str,
                     chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[XmlEvent]:
    """Stream events for the document stored at ``path`` (UTF-8).

    The file is read in bounded chunks and stays open only while the
    returned iterator is being consumed.
    """
    with open(path, encoding="utf-8") as handle:
        yield from iter_events_stream(handle, chunk_size)
