"""Configuration validation.

:func:`validate_config` checks the structural invariants the detection
phase relies on and returns a list of human-readable problems (empty when
valid); :func:`ensure_valid` raises :class:`~repro.errors.ConfigError`
instead.  Validation is separate from construction so configurations can
be assembled incrementally (including from XML) before being checked.
"""

from __future__ import annotations

from ..errors import ConfigError, PathSyntaxError, PatternSyntaxError
from ..keys import parse_pattern
from ..similarity import available_similarities
from ..xpath import parse_path
from .model import (DECISION_MODES, DEFAULT_MINHASH_BANDS,
                    DEFAULT_MINHASH_HASHES, STRATEGY_NAMES, CandidateSpec,
                    StrategySpec, SxnmConfig, parse_composite_fields)

_DESC_PHIS = {"jaccard", "multiset_jaccard", "overlap", "dice"}

#: Knobs each neighborhood strategy accepts (camelCase, as XML attrs).
_STRATEGY_PARAMS = {
    "window": frozenset(),
    "exact-key": frozenset({"key", "maxBlock"}),
    "composite": frozenset({"fields", "maxBlock"}),
    "minhash-lsh": frozenset({"hashes", "bands", "seed", "maxBlock"}),
}


def _strategy_int(spec: StrategySpec, param: str, problems: list[str],
                  minimum: int | None = None) -> int | None:
    text = spec.params.get(param)
    if text is None:
        return None
    prefix = f"strategy {spec.name!r}"
    try:
        value = int(text)
    except ValueError:
        problems.append(f"{prefix}: {param} {text!r} is not an integer")
        return None
    if minimum is not None and value < minimum:
        problems.append(f"{prefix}: {param} must be >= {minimum}, "
                        f"got {value}")
        return None
    return value


def _validate_strategy(spec: StrategySpec, problems: list[str]) -> None:
    allowed = _STRATEGY_PARAMS.get(spec.name)
    if allowed is None:
        problems.append(
            f"unknown neighborhood strategy {spec.name!r} "
            f"(expected one of {sorted(STRATEGY_NAMES)})")
        return
    prefix = f"strategy {spec.name!r}"
    for param in sorted(set(spec.params) - allowed):
        problems.append(f"{prefix}: unknown parameter {param!r} "
                        f"(expected one of {sorted(allowed)})")
    _strategy_int(spec, "maxBlock", problems, minimum=2)
    if spec.name == "exact-key":
        _strategy_int(spec, "key", problems, minimum=0)
    elif spec.name == "composite":
        fields_text = spec.params.get("fields")
        if fields_text is not None:
            try:
                parse_composite_fields(fields_text)
            except ConfigError as error:
                problems.append(f"{prefix}: {error}")
    elif spec.name == "minhash-lsh":
        hashes = _strategy_int(spec, "hashes", problems, minimum=1)
        bands = _strategy_int(spec, "bands", problems, minimum=1)
        _strategy_int(spec, "seed", problems)
        # Defaults fill in so a lone override is still checked for shape.
        if "hashes" not in spec.params:
            hashes = DEFAULT_MINHASH_HASHES
        if "bands" not in spec.params:
            bands = DEFAULT_MINHASH_BANDS
        if hashes is not None and bands is not None and hashes % bands:
            problems.append(f"{prefix}: hashes ({hashes}) must divide "
                            f"evenly into bands ({bands})")


def _validate_candidate(spec: CandidateSpec, problems: list[str]) -> None:
    prefix = f"candidate {spec.name!r}"
    if not spec.name:
        problems.append("candidate with empty name")
    try:
        path = parse_path(spec.xpath)
        if path.is_value_path:
            problems.append(f"{prefix}: candidate xpath must select elements")
    except PathSyntaxError as error:
        problems.append(f"{prefix}: bad xpath: {error}")

    seen_pids: set[int] = set()
    for entry in spec.paths:
        if entry.pid in seen_pids:
            problems.append(f"{prefix}: duplicate path id {entry.pid}")
        seen_pids.add(entry.pid)
        try:
            parse_path(entry.rel_path)
        except PathSyntaxError as error:
            problems.append(f"{prefix}: bad relative path {entry.rel_path!r}: {error}")

    if not spec.ods:
        problems.append(f"{prefix}: object description is empty")
    total_relevance = 0.0
    for od in spec.ods:
        if od.pid not in seen_pids:
            problems.append(f"{prefix}: OD references unknown path id {od.pid}")
        if not 0.0 < od.relevance <= 1.0:
            problems.append(
                f"{prefix}: OD relevance {od.relevance} outside (0, 1]")
        if od.phi not in available_similarities():
            problems.append(f"{prefix}: unknown OD phi function {od.phi!r}")
        total_relevance += od.relevance
    if spec.ods and abs(total_relevance - 1.0) > 1e-6:
        problems.append(
            f"{prefix}: OD relevancies sum to {total_relevance:g}, expected 1")

    if not spec.keys:
        problems.append(f"{prefix}: no key defined (at least one pass needed)")
    for key_index, entries in enumerate(spec.keys, start=1):
        orders = [entry.order for entry in entries]
        if len(set(orders)) != len(orders):
            problems.append(f"{prefix}: key {key_index} has duplicate part orders")
        for entry in entries:
            if entry.pid not in seen_pids:
                problems.append(
                    f"{prefix}: key {key_index} references unknown path id {entry.pid}")
            try:
                parse_pattern(entry.pattern)
            except PatternSyntaxError as error:
                problems.append(
                    f"{prefix}: key {key_index} bad pattern {entry.pattern!r}: {error}")

    if spec.window_size is not None and spec.window_size < 2:
        problems.append(f"{prefix}: window size must be >= 2")
    for label, value in [("od_threshold", spec.od_threshold),
                         ("desc_threshold", spec.desc_threshold),
                         ("duplicate_threshold", spec.duplicate_threshold)]:
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"{prefix}: {label} {value} outside [0, 1]")
    if spec.desc_phi not in _DESC_PHIS:
        problems.append(
            f"{prefix}: unknown descendant phi {spec.desc_phi!r} "
            f"(expected one of {sorted(_DESC_PHIS)})")


def validate_config(config: SxnmConfig) -> list[str]:
    """Return a list of problems with ``config`` (empty list = valid)."""
    problems: list[str] = []
    if not config.candidates:
        problems.append("configuration defines no candidates")
    names = [spec.name for spec in config.candidates]
    if len(set(names)) != len(names):
        problems.append("candidate names are not unique")
    if config.window_size < 2:
        problems.append("global window size must be >= 2")
    for label, value in [("od_threshold", config.od_threshold),
                         ("desc_threshold", config.desc_threshold),
                         ("duplicate_threshold", config.duplicate_threshold)]:
        if not 0.0 <= value <= 1.0:
            problems.append(f"global {label} {value} outside [0, 1]")
    if config.phi_cache_size < 0:
        problems.append("phi cache size must be >= 0 (0 disables the cache)")
    if config.phi_cache_dir is not None \
            and not str(config.phi_cache_dir).strip():
        problems.append("phi cache dir must be a non-empty path or None")
    if config.phi_cache_dir is not None and config.phi_cache_size == 0:
        problems.append("phi cache dir needs a positive phi cache size "
                        "(the in-memory memo feeds the persistent spill)")
    if config.index_dir is not None and not str(config.index_dir).strip():
        problems.append("index dir must be a non-empty path or None")
    if config.spill_dir is not None and not str(config.spill_dir).strip():
        problems.append("spill dir must be a non-empty path or None")
    if config.spill_max_rows < 1:
        problems.append("spill max rows must be >= 1")
    if config.decision_mode not in DECISION_MODES:
        problems.append(
            f"decision mode {config.decision_mode!r} unknown "
            f"(expected 'threshold' or 'three-way')")
    if not 0.0 <= config.decision_fpr < 1.0:
        problems.append(
            f"decision fpr {config.decision_fpr} outside [0, 1)")
    if not 0.0 < config.decision_coverage < 1.0:
        problems.append(
            f"decision coverage {config.decision_coverage} outside (0, 1)")
    strategy_names = [strategy.name
                      for strategy in config.neighborhood_strategies]
    if len(set(strategy_names)) != len(strategy_names):
        problems.append("neighborhood strategies list the same strategy "
                        "more than once")
    for strategy in config.neighborhood_strategies:
        _validate_strategy(strategy, problems)
    candidate_names = {spec.name for spec in config.candidates}
    for spec in config.candidates:
        _validate_candidate(spec, problems)
        for name, weight in spec.desc_weights.items():
            if weight < 0:
                problems.append(
                    f"candidate {spec.name!r}: negative descendant weight "
                    f"for {name!r}")
            if name not in candidate_names:
                problems.append(
                    f"candidate {spec.name!r}: descendant weight references "
                    f"unknown candidate {name!r}")
    return problems


def ensure_valid(config: SxnmConfig) -> SxnmConfig:
    """Raise :class:`ConfigError` listing all problems; return the config."""
    problems = validate_config(config)
    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))
    return config
