"""Read and write SXNM configurations as XML documents.

The paper states that "the configuration … is itself an XML document".
This module defines that document format and round-trips it through the
:mod:`repro.xmlmodel` substrate::

    <sxnm-config window="5" odThreshold="0.65" descThreshold="0.3"
                 duplicateThreshold="0.65">
      <candidate name="movie" xpath="movie_database/movies/movie">
        <paths>
          <path id="1" relPath="title/text()"/>
          <path id="2" relPath="@ID"/>
          <path id="3" relPath="@year"/>
        </paths>
        <objectDescription>
          <od pid="1" relevance="0.8" phi="edit"/>
          <od pid="3" relevance="0.2" phi="year"/>
        </objectDescription>
        <key name="Key 1">
          <part pid="1" order="1" pattern="K1,K2"/>
          <part pid="3" order="2" pattern="D3,D4"/>
        </key>
        <detection window="5" odThreshold="0.65" useDescendants="true"
                   descPhi="jaccard"/>
      </candidate>
    </sxnm-config>

Numeric attributes are optional everywhere the model allows ``None``.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..xmlmodel import XmlDocument, XmlElement, parse, parse_file, serialize, write_file
from .model import (DEFAULT_DECISION_COVERAGE, DEFAULT_DECISION_FPR,
                    DEFAULT_DECISION_MODE, DEFAULT_SPILL_MAX_ROWS,
                    CandidateSpec, KeyEntry, OdEntry, PathEntry, StrategySpec,
                    SxnmConfig)
from .validate import ensure_valid


def _require(element: XmlElement, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise ConfigError(
            f"<{element.tag}> is missing required attribute {attribute!r}")
    return value


def _get_float(element: XmlElement, attribute: str) -> float | None:
    value = element.get(attribute)
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            f"<{element.tag}> attribute {attribute!r} is not a number: {value!r}") from None


def _get_int(element: XmlElement, attribute: str) -> int | None:
    value = element.get(attribute)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"<{element.tag}> attribute {attribute!r} is not an integer: {value!r}") from None


def _get_bool(element: XmlElement, attribute: str, default: bool) -> bool:
    value = element.get(attribute)
    if value is None:
        return default
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(
        f"<{element.tag}> attribute {attribute!r} is not a boolean: {value!r}")


def _read_candidate(node: XmlElement) -> CandidateSpec:
    spec = CandidateSpec(name=_require(node, "name"), xpath=_require(node, "xpath"))

    paths_node = node.find("paths")
    if paths_node is not None:
        for path_node in paths_node.find_all("path"):
            pid = _get_int(path_node, "id")
            if pid is None:
                raise ConfigError("<path> is missing required attribute 'id'")
            spec.paths.append(PathEntry(pid, _require(path_node, "relPath")))

    od_node = node.find("objectDescription")
    if od_node is not None:
        for entry in od_node.find_all("od"):
            pid = _get_int(entry, "pid")
            relevance = _get_float(entry, "relevance")
            if pid is None or relevance is None:
                raise ConfigError("<od> requires 'pid' and 'relevance' attributes")
            spec.ods.append(OdEntry(pid, relevance, phi=entry.get("phi", "edit")))

    for key_node in node.find_all("key"):
        entries = []
        for part in key_node.find_all("part"):
            pid = _get_int(part, "pid")
            order = _get_int(part, "order")
            if pid is None or order is None:
                raise ConfigError("<part> requires 'pid' and 'order' attributes")
            entries.append(KeyEntry(pid, order, _require(part, "pattern")))
        if not entries:
            raise ConfigError(f"candidate {spec.name!r}: <key> has no <part> children")
        spec.keys.append(entries)
        spec.key_names.append(key_node.get("name", f"Key {len(spec.keys)}"))

    descendants = node.find("descendants")
    if descendants is not None:
        for weight_node in descendants.find_all("weight"):
            value = _get_float(weight_node, "value")
            if value is None:
                raise ConfigError("<weight> requires a 'value' attribute")
            spec.desc_weights[_require(weight_node, "candidate")] = value

    detection = node.find("detection")
    if detection is not None:
        spec.window_size = _get_int(detection, "window")
        spec.od_threshold = _get_float(detection, "odThreshold")
        spec.desc_threshold = _get_float(detection, "descThreshold")
        spec.duplicate_threshold = _get_float(detection, "duplicateThreshold")
        spec.use_descendants = _get_bool(detection, "useDescendants", True)
        spec.desc_phi = detection.get("descPhi", "jaccard")
    return spec


def config_from_document(document: XmlDocument) -> SxnmConfig:
    """Build and validate a configuration from a parsed XML document."""
    root = document.root
    if root.tag != "sxnm-config":
        raise ConfigError(f"expected <sxnm-config> root, found <{root.tag}>")
    config = SxnmConfig()
    window = _get_int(root, "window")
    if window is not None:
        config.window_size = window
    for attribute, name in [("odThreshold", "od_threshold"),
                            ("descThreshold", "desc_threshold"),
                            ("duplicateThreshold", "duplicate_threshold")]:
        value = _get_float(root, attribute)
        if value is not None:
            setattr(config, name, value)
    config.use_filters = _get_bool(root, "useFilters", config.use_filters)
    phi_cache_size = _get_int(root, "phiCacheSize")
    if phi_cache_size is not None:
        config.phi_cache_size = phi_cache_size
    phi_cache_dir = root.get("phiCacheDir")
    if phi_cache_dir is not None:
        config.phi_cache_dir = phi_cache_dir
    config.phi_cache_persist = _get_bool(root, "phiCachePersist",
                                         config.phi_cache_persist)
    index_dir = root.get("indexDir")
    if index_dir is not None:
        config.index_dir = index_dir
    config.index_persist = _get_bool(root, "indexPersist",
                                     config.index_persist)
    config.stream_parse = _get_bool(root, "streamParse",
                                    config.stream_parse)
    spill_dir = root.get("spillDir")
    if spill_dir is not None:
        config.spill_dir = spill_dir
    spill_max_rows = _get_int(root, "spillMaxRows")
    if spill_max_rows is not None:
        config.spill_max_rows = spill_max_rows
    decision_node = root.find("decision")
    if decision_node is not None:
        mode = decision_node.get("mode")
        if mode is not None:
            config.decision_mode = mode
        fpr = _get_float(decision_node, "fpr")
        if fpr is not None:
            config.decision_fpr = fpr
        coverage = _get_float(decision_node, "coverage")
        if coverage is not None:
            config.decision_coverage = coverage
    strategies_node = root.find("neighborhoodStrategies")
    if strategies_node is not None:
        for strategy_node in strategies_node.find_all("strategy"):
            name = _require(strategy_node, "name")
            params = {key: value
                      for key, value in strategy_node.attributes.items()
                      if key != "name"}
            config.neighborhood_strategies.append(StrategySpec(name, params))
    for node in root.find_all("candidate"):
        config.add(_read_candidate(node))
    return ensure_valid(config)


def load_config(source: str) -> SxnmConfig:
    """Parse a configuration from an XML string."""
    return config_from_document(parse(source))


def load_config_file(path: str) -> SxnmConfig:
    """Parse a configuration from an XML file."""
    return config_from_document(parse_file(path))


def _candidate_to_xml(spec: CandidateSpec) -> XmlElement:
    node = XmlElement("candidate", {"name": spec.name, "xpath": spec.xpath})
    paths_node = node.make_child("paths")
    for entry in spec.paths:
        paths_node.make_child("path").attributes.update(
            {"id": str(entry.pid), "relPath": entry.rel_path})
    od_node = node.make_child("objectDescription")
    for od in spec.ods:
        od_node.make_child("od").attributes.update(
            {"pid": str(od.pid), "relevance": repr(od.relevance), "phi": od.phi})
    for index, entries in enumerate(spec.keys):
        name = spec.key_names[index] if index < len(spec.key_names) \
            else f"Key {index + 1}"
        key_node = node.make_child("key", attributes={"name": name})
        for entry in entries:
            key_node.make_child("part").attributes.update(
                {"pid": str(entry.pid), "order": str(entry.order),
                 "pattern": entry.pattern})
    if spec.desc_weights:
        descendants = node.make_child("descendants")
        for candidate_name, value in spec.desc_weights.items():
            weight_node = descendants.make_child("weight")
            weight_node.set("candidate", candidate_name)
            weight_node.set("value", repr(value))
    detection = node.make_child("detection")
    if spec.window_size is not None:
        detection.set("window", str(spec.window_size))
    if spec.od_threshold is not None:
        detection.set("odThreshold", repr(spec.od_threshold))
    if spec.desc_threshold is not None:
        detection.set("descThreshold", repr(spec.desc_threshold))
    if spec.duplicate_threshold is not None:
        detection.set("duplicateThreshold", repr(spec.duplicate_threshold))
    detection.set("useDescendants", "true" if spec.use_descendants else "false")
    detection.set("descPhi", spec.desc_phi)
    return node


def config_to_document(config: SxnmConfig) -> XmlDocument:
    """Serialize ``config`` into an XML document."""
    root = XmlElement("sxnm-config", {
        "window": str(config.window_size),
        "odThreshold": repr(config.od_threshold),
        "descThreshold": repr(config.desc_threshold),
        "duplicateThreshold": repr(config.duplicate_threshold),
        "useFilters": "true" if config.use_filters else "false",
        "phiCacheSize": str(config.phi_cache_size),
    })
    if config.phi_cache_dir is not None:
        root.set("phiCacheDir", config.phi_cache_dir)
    if not config.phi_cache_persist:
        root.set("phiCachePersist", "false")
    if config.index_dir is not None:
        root.set("indexDir", config.index_dir)
    if not config.index_persist:
        root.set("indexPersist", "false")
    if config.stream_parse:
        root.set("streamParse", "true")
    if config.spill_dir is not None:
        root.set("spillDir", config.spill_dir)
    if config.spill_max_rows != DEFAULT_SPILL_MAX_ROWS:
        root.set("spillMaxRows", str(config.spill_max_rows))
    if (config.decision_mode != DEFAULT_DECISION_MODE
            or config.decision_fpr != DEFAULT_DECISION_FPR
            or config.decision_coverage != DEFAULT_DECISION_COVERAGE):
        decision_node = root.make_child("decision")
        decision_node.set("mode", config.decision_mode)
        decision_node.set("fpr", repr(config.decision_fpr))
        decision_node.set("coverage", repr(config.decision_coverage))
    if config.neighborhood_strategies:
        strategies_node = root.make_child("neighborhoodStrategies")
        for strategy in config.neighborhood_strategies:
            strategy_node = strategies_node.make_child(
                "strategy", attributes={"name": strategy.name})
            for key, value in strategy.params.items():
                strategy_node.set(key, str(value))
    for spec in config.candidates:
        root.append(_candidate_to_xml(spec))
    return XmlDocument(root)


def dump_config(config: SxnmConfig, pretty: bool = True) -> str:
    """Serialize ``config`` to an XML string."""
    return serialize(config_to_document(config), pretty=pretty)


def save_config_file(config: SxnmConfig, path: str) -> None:
    """Write ``config`` to ``path`` as pretty-printed XML."""
    write_file(config_to_document(config), path)
