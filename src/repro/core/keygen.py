"""Key generation — the first SXNM phase (paper Sec. 3.3).

Reads the XML data *once* and produces, per candidate, a
:class:`~repro.core.gk.GkTable` holding the generated keys **and** the
object descriptions ("to save an extra pass of the XML data, we
simultaneously extract the object descriptions").

Two implementations with identical output:

* :func:`generate_gk` — over a parsed :class:`~repro.xmlmodel.XmlDocument`
  (general: supports any candidate path the evaluator supports).
* :func:`generate_gk_streaming` — over the SAX-style event stream,
  a literal single pass that never materializes more than the currently
  open candidate subtree.  Restricted to plain-step candidate paths
  (no predicates, wildcards, or ``//``), which covers every configuration
  in the paper.  Its state machine, :func:`stream_gk_rows`, hands rows
  to a per-candidate sink, so the out-of-core path
  (:mod:`repro.core.spill`) reuses it with a spilling sink.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..config import CandidateSpec, SxnmConfig
from ..errors import ConfigError
from ..keys import KeyDefinition
from ..xmlmodel import (XmlDocument, XmlElement, XmlEvent, is_xml_name,
                        iter_events)
from ..xpath import first_value, resolve_absolute, select_elements
from .candidates import CandidateHierarchy, CandidateNode, _steps_of
from .gk import GkRow, GkTable


def _extract_row(element: XmlElement, spec: CandidateSpec,
                 definitions: list[KeyDefinition]) -> GkRow:
    """Generate keys and extract OD values for one candidate instance."""
    if element.eid is None:
        raise ValueError("candidate element has no eid; assign_eids() first")
    keys = [definition.generate(element) for definition in definitions]
    ods = [first_value(element, path) for path, _, _ in spec.od_items()]
    return GkRow(element.eid, keys, ods)


def _new_table(spec: CandidateSpec) -> GkTable:
    return GkTable(spec.name, key_count=len(spec.keys), od_count=len(spec.ods))


def generate_gk(document: XmlDocument, config: SxnmConfig,
                hierarchy: CandidateHierarchy | None = None) -> dict[str, GkTable]:
    """Build all GK tables from a parsed document.

    Returns a mapping ``candidate name -> GkTable``.  Each row also
    carries the eids of nested instances of the candidate's direct child
    candidates, used later for descendant similarity.
    """
    hierarchy = hierarchy or CandidateHierarchy(config)
    document.elements_by_eid()  # ensure eids exist
    tables: dict[str, GkTable] = {}
    instances: dict[str, list[XmlElement]] = {}

    for spec in config.candidates:
        definitions = spec.key_definitions()
        table = _new_table(spec)
        found = resolve_absolute(document.root, spec.xpath)
        for element in found:
            table.add(_extract_row(element, spec, definitions))
        tables[spec.name] = table
        instances[spec.name] = found

    # Record candidate-tree children per instance.
    for name, table in tables.items():
        node = hierarchy.node(name)
        if not node.children:
            continue
        for element in instances[name]:
            row = table.row(element.eid)
            for child_node in node.children:
                relative = hierarchy.relative_path_to(node, child_node)
                for child_element in select_elements(element, relative):
                    row.add_child(child_node.name, child_element.eid)
    return tables


class _OpenCandidate:
    """A candidate instance currently being collected from the stream."""

    __slots__ = ("node", "element", "children", "depth")

    def __init__(self, node: CandidateNode, element: XmlElement, depth: int):
        self.node = node
        self.element = element
        self.children: dict[str, list[int]] = {}
        self.depth = depth


def _plain_steps(spec: CandidateSpec) -> tuple[str, ...]:
    steps = _steps_of(spec.xpath)
    for step in steps:
        # Share the parser's name predicate: any element name the parser
        # accepts (including namespace-prefixed ones like "db:movie") is
        # a plain step; predicates, wildcards, and "//" are not.
        if not is_xml_name(step):
            raise ConfigError(
                f"streaming key generation requires plain candidate paths; "
                f"{spec.name!r} uses step {step!r}")
    return steps


def generate_gk_streaming(source: str | Iterable[XmlEvent],
                          config: SxnmConfig,
                          hierarchy: CandidateHierarchy | None = None,
                          ) -> dict[str, GkTable]:
    """Build all GK tables in a single pass over a document or event stream.

    ``source`` is either the XML text or an iterable of
    :class:`~repro.xmlmodel.XmlEvent`.  Only the subtree of the currently
    open outermost candidate is materialized.
    """
    events = iter_events(source) if isinstance(source, str) else source
    tables = {spec.name: _new_table(spec) for spec in config.candidates}
    stream_gk_rows(events, config, hierarchy,
                   {name: table.add for name, table in tables.items()})
    return tables


def stream_gk_rows(events: Iterable[XmlEvent], config: SxnmConfig,
                   hierarchy: CandidateHierarchy | None,
                   sinks: dict[str, Callable[[GkRow], object]]) -> None:
    """The streaming key generator: one pass, rows handed to ``sinks``.

    ``sinks`` maps each candidate name to the callable receiving its
    rows in close (document) order — :meth:`GkTable.add` in memory, a
    spilling buffer out of core.  Eids are assigned in pre-order over
    all start events (exactly as ``assign_eids`` numbers a parsed
    document), candidates match on the open-tag path, and each finished
    row carries the eids of its nested child-candidate instances.
    """
    hierarchy = hierarchy or CandidateHierarchy(config)
    by_steps: dict[tuple[str, ...], CandidateNode] = {}
    for spec in config.candidates:
        by_steps[_plain_steps(spec)] = hierarchy.node(spec.name)
    definitions = {spec.name: spec.key_definitions() for spec in config.candidates}

    tag_stack: list[str] = []
    open_candidates: list[_OpenCandidate] = []
    build_stack: list[XmlElement] = []       # nodes of the open candidate subtree
    last_closed: XmlElement | None = None
    next_eid = 0

    for event in events:
        if event.kind == "start":
            tag, attributes = event.value  # type: ignore[misc]
            tag_stack.append(tag)
            eid = next_eid
            next_eid += 1
            inside = bool(open_candidates)
            node = by_steps.get(tuple(tag_stack))
            if inside or node is not None:
                element = XmlElement(tag, attributes=dict(attributes))
                element.eid = eid
                if build_stack:
                    build_stack[-1].append(element)
                build_stack.append(element)
                if node is not None:
                    open_candidates.append(
                        _OpenCandidate(node, element, len(tag_stack)))
                last_closed = None
        elif event.kind == "text":
            if build_stack:
                text = str(event.value)
                current = build_stack[-1]
                if last_closed is not None and last_closed.parent is current:
                    last_closed.tail = (last_closed.tail or "") + text
                else:
                    current.text = (current.text or "") + text
        else:  # end
            depth = len(tag_stack)
            tag_stack.pop()
            if not build_stack:
                continue
            closing = build_stack.pop()
            last_closed = closing if build_stack else None
            if open_candidates and open_candidates[-1].depth == depth \
                    and open_candidates[-1].element is closing:
                finished = open_candidates.pop()
                spec = finished.node.spec
                row = _extract_row(finished.element, spec, definitions[spec.name])
                row.children = finished.children
                sinks[spec.name](row)
                if open_candidates:
                    # Register with the nearest enclosing candidate, which is
                    # the direct parent in the candidate tree.
                    open_candidates[-1].children.setdefault(
                        finished.node.name, []).append(finished.element.eid)
