"""The character-at-a-time XML scanner, kept as a test oracle.

This is the parser's scanner as it stood before the regex tokenizer
replaced it: two scanner classes (a string scanner and a chunked file
scanner) that walk markup one character at a time, and the event loop
over them, copied verbatim.  It is not shipped: the differential tests
in ``test_parser_differential.py`` and ``benchmarks/test_bench_parse.py``
check the tokenizer's events and errors against it.

Entry points: :func:`reference_events` (a string) and
:func:`reference_events_stream` (an open text handle, read in chunks).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import XmlParseError
from repro.xmlmodel import XmlEvent

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA




class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, data: str):
        self.data = data
        self.pos = 0
        self.length = len(data)

    def location(self) -> tuple[int, int]:
        """1-based (line, column) of the current position."""
        line = self.data.count("\n", 0, self.pos) + 1
        last_newline = self.data.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return line, column

    def error(self, message: str) -> XmlParseError:
        line, column = self.location()
        return XmlParseError(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.data[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if it appears at the current position."""
        if self.data.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.data[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, terminator: str) -> str:
        """Read up to (not including) ``terminator``; consume the terminator."""
        index = self.data.find(terminator, self.pos)
        if index < 0:
            raise self.error(f"unterminated construct, expected {terminator!r}")
        chunk = self.data[self.pos:index]
        self.pos = index + len(terminator)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.data[self.pos]):
            raise self.error("expected an XML name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.data[self.pos]):
            self.pos += 1
        return self.data[start:self.pos]

    def read_text(self) -> str:
        """Read raw character data up to (not including) the next ``<``.

        Stops at end of input if no markup follows; the ``<`` itself is
        left unconsumed.
        """
        index = self.data.find("<", self.pos)
        if index < 0:
            chunk = self.data[self.pos:]
            self.pos = self.length
        else:
            chunk = self.data[self.pos:index]
            self.pos = index
        return chunk


DEFAULT_CHUNK_SIZE = 64 * 1024


class _ChunkedScanner:
    """Scanner over a text file handle holding a bounded window in memory.

    Implements the same protocol as :class:`_Scanner` but never slurps the
    whole input: at most ``chunk_size`` characters are requested per read,
    and the consumed prefix of the buffer is discarded as scanning
    advances, so memory stays proportional to ``chunk_size`` plus the
    largest single construct (one text node, comment, or attribute value).
    Line/column tracking is kept absolute across discarded prefixes.
    """

    def __init__(self, handle, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self.handle = handle
        self.chunk_size = max(1, chunk_size)
        self.buffer = ""
        self.pos = 0
        self.offset = 0  # absolute index of buffer[0] in the input
        self.eof = False
        self._newlines_before = 0   # newlines in the discarded prefix
        self._last_newline_abs = -1  # absolute index of the last one

    def _discard(self) -> None:
        """Drop the consumed prefix, keeping location tracking absolute."""
        if self.pos == 0:
            return
        dropped = self.buffer[:self.pos]
        count = dropped.count("\n")
        if count:
            self._newlines_before += count
            self._last_newline_abs = self.offset + dropped.rfind("\n")
        self.offset += self.pos
        self.buffer = self.buffer[self.pos:]
        self.pos = 0

    def _fill(self, ahead: int = 1) -> None:
        """Buffer at least ``ahead`` characters past ``pos`` if available."""
        while not self.eof and len(self.buffer) - self.pos < ahead:
            if self.pos > self.chunk_size:
                self._discard()
            chunk = self.handle.read(self.chunk_size)
            if chunk:
                self.buffer += chunk
            else:
                self.eof = True

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
        self._fill(1)
        return self.pos >= len(self.buffer)

    def peek(self, offset: int = 0) -> str:
        self._fill(offset + 1)
        index = self.pos + offset
        return self.buffer[index] if index < len(self.buffer) else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def match(self, literal: str) -> bool:
        self._fill(len(literal))
        if self.buffer.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def skip_whitespace(self) -> None:
        while True:
            while self.pos < len(self.buffer) \
                    and self.buffer[self.pos] in " \t\r\n":
                self.pos += 1
            if self.pos < len(self.buffer) or self.eof:
                return
            self._fill(1)
            if self.pos >= len(self.buffer):
                return

    def read_until(self, terminator: str) -> str:
        parts: list[str] = []
        keep = len(terminator) - 1
        while True:
            self._fill(len(terminator))
            index = self.buffer.find(terminator, self.pos)
            if index >= 0:
                parts.append(self.buffer[self.pos:index])
                self.pos = index + len(terminator)
                return "".join(parts)
            if self.eof:
                raise self.error(
                    f"unterminated construct, expected {terminator!r}")
            # Keep a terminator-straddling suffix, release the rest.
            split = max(self.pos, len(self.buffer) - keep)
            parts.append(self.buffer[self.pos:split])
            self.pos = split
            self._discard()

    def read_name(self) -> str:
        self._fill(1)
        if self.pos >= len(self.buffer) \
                or not _is_name_start(self.buffer[self.pos]):
            raise self.error("expected an XML name")
        parts = [self.buffer[self.pos]]
        self.pos += 1
        while True:
            if self.pos >= len(self.buffer):
                self._fill(1)
                if self.pos >= len(self.buffer):
                    break
            char = self.buffer[self.pos]
            if not _is_name_char(char):
                break
            parts.append(char)
            self.pos += 1
        return "".join(parts)

    def read_text(self) -> str:
        parts: list[str] = []
        while True:
            self._fill(1)
            index = self.buffer.find("<", self.pos)
            if index >= 0:
                parts.append(self.buffer[self.pos:index])
                self.pos = index
                return "".join(parts)
            parts.append(self.buffer[self.pos:])
            self.pos = len(self.buffer)
            if self.eof:
                return "".join(parts)
            self._discard()


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


def _read_attributes(scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        char = scanner.peek()
        if char in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value = scanner.read_until(quote)
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_entities(value, scanner)


def _skip_prolog_and_misc(scanner) -> None:
    """Skip the XML declaration, DOCTYPE, comments, and PIs before the root."""
    while True:
        scanner.skip_whitespace()
        if scanner.match("<?"):
            scanner.read_until("?>")
        elif scanner.match("<!--"):
            scanner.read_until("-->")
        elif scanner.match("<!DOCTYPE"):
            # Consume until the matching '>' (internal subsets use brackets).
            depth = 1
            while depth:
                if scanner.at_end():
                    raise scanner.error("unterminated DOCTYPE")
                char = scanner.peek()
                if char == "<":
                    depth += 1
                elif char == ">":
                    depth -= 1
                scanner.advance()
        else:
            return

def reference_events(data: str) -> Iterator[XmlEvent]:
    """The oracle's events for the string ``data``."""
    return _scan_events(_Scanner(data))


def reference_events_stream(handle, chunk_size: int = DEFAULT_CHUNK_SIZE
                            ) -> Iterator[XmlEvent]:
    """The oracle's events for the open text ``handle``, read in chunks."""
    return _scan_events(_ChunkedScanner(handle, chunk_size))


def _scan_events(scanner) -> Iterator[XmlEvent]:
    _skip_prolog_and_misc(scanner)
    if scanner.at_end():
        raise scanner.error("document has no root element")

    open_tags: list[str] = []
    started = False
    while True:
        if scanner.at_end():
            if open_tags:
                raise scanner.error(f"unexpected end of input inside <{open_tags[-1]}>")
            if not started:
                raise scanner.error("document has no root element")
            return

        if scanner.peek() != "<":
            raw = scanner.read_text()
            if open_tags:
                yield XmlEvent("text", _decode_entities(raw, scanner))
            elif raw.strip():
                raise scanner.error("character data outside the root element")
            continue

        if scanner.match("<!--"):
            scanner.read_until("-->")
            continue
        if scanner.match("<![CDATA["):
            if not open_tags:
                raise scanner.error("CDATA outside the root element")
            yield XmlEvent("text", scanner.read_until("]]>"))
            continue
        if scanner.match("<?"):
            scanner.read_until("?>")
            continue
        if scanner.match("</"):
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">")
            if not open_tags:
                raise scanner.error(f"closing tag </{name}> with no open element")
            expected = open_tags.pop()
            if name != expected:
                raise scanner.error(f"mismatched closing tag </{name}>, expected </{expected}>")
            yield XmlEvent("end", name)
            if not open_tags:
                # After the root closes, only misc content may follow.
                _skip_prolog_and_misc(scanner)
                scanner.skip_whitespace()
                if not scanner.at_end():
                    raise scanner.error("content after the root element")
                return
            continue

        # Start tag.
        scanner.expect("<")
        if not started and open_tags:
            raise scanner.error("internal parser state error")  # pragma: no cover
        name = scanner.read_name()
        attributes = _read_attributes(scanner)
        scanner.skip_whitespace()
        if scanner.match("/>"):
            yield XmlEvent("start", (name, attributes))
            yield XmlEvent("end", name)
            started = True
            if not open_tags:
                _skip_prolog_and_misc(scanner)
                scanner.skip_whitespace()
                if not scanner.at_end():
                    raise scanner.error("content after the root element")
                return
            continue
        scanner.expect(">")
        open_tags.append(name)
        started = True
        yield XmlEvent("start", (name, attributes))

