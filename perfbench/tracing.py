"""The traced run: per-layer time and counts, measured from outside.

Spans are recorded around calls into public functions (``parse_file``,
``parse``, ``generate_gk``, ``SxnmDetector.run``,
``IncrementalSxnm.add_batch``) and from the timestamps of
:class:`~repro.core.observer.EngineObserver` events (phases, φ store
load/flush, index commits, spills).  φ functions are re-registered with
timing wrappers through ``register_similarity(..., overwrite=True)``,
keeping their traits, so the comparison plane still binds the same
filters and banded evaluator.  No file of the program is changed.

An attached observer takes the engine off its observer-free fast path,
so these numbers come only from the traced run; end-to-end metrics come
from untraced runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

from repro.core.observer import (PHASE_CLOSURE, PHASE_KEY_GENERATION,
                                 PHASE_WINDOW, EngineObserver)

import worker

# Per-layer metrics and their units, in the order they are reported.
LAYER_METRICS = {
    "xmlmodel.parse_s": "s",
    "xmlmodel.mb_per_s": "MB/s",
    "keygen.s": "s",
    "keygen.rows": "count",
    "spill.runs": "count",
    "spill.rows": "count",
    "spill.bytes": "bytes",
    "window.s": "s",
    "window.self_s": "s",
    "window.comparisons": "count",
    "window.yield": "ratio",
    "similarity.phi_s": "s",
    "similarity.phi_s.edit": "s",
    "similarity.phi_s.numeric": "s",
    "similarity.phi_calls": "count",
    "similarity.edit_full_evals": "count",
    "similarity.edit_bounded_evals": "count",
    "similarity.memo_hit_rate": "ratio",
    "similarity.prefilter_rate": "ratio",
    "closure.s": "s",
    "closure.clusters": "count",
    "store.s": "s",
    "store.entries_loaded": "count",
    "store.entries_flushed": "count",
    "store.disk_hits": "count",
    "store.bytes": "bytes",
    "index.commit_s": "s",
    "index.commits": "count",
    "index.bytes_written": "bytes",
    "index.restore_s": "s",
    "incremental.comparisons": "count",
    "incremental.new_pairs": "count",
    "trace.overhead": "ratio",
    "trace.unaccounted_share": "ratio",
}

# Spans whose intervals are disjoint and together should cover the
# traced wall clock; the rest of it is ``trace.unaccounted_share``.
LAYER_SPANS = ("xmlmodel.parse", "keygen", "window", "closure",
               "store.load", "store.flush", "index.commit")

_PHASE_SPANS = {PHASE_KEY_GENERATION: "keygen", PHASE_WINDOW: "window",
                PHASE_CLOSURE: "closure"}


class Tracer:
    """Spans (name, start, end) kept in memory, plus φ time and calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.phi_seconds: dict[str, float] = {}
        self.phi_calls: dict[str, int] = {}

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def total(self, name: str) -> float:
        return sum(end - start for span, start, end in self.spans
                   if span == name)

    def instrument_phis(self, names) -> None:
        """Re-register each named φ (and its banded evaluator) with a
        wrapper that adds its wall time and calls to this tracer."""
        from repro.similarity import (get_similarity, get_traits,
                                      register_similarity)
        for name in sorted(names):
            self.phi_seconds[name] = 0.0
            self.phi_calls[name] = 0
            traits = get_traits(name)
            bounded = traits.bounded
            if bounded is not None:
                bounded = self._timed(name, bounded)
            register_similarity(
                name, self._timed(name, get_similarity(name)),
                overwrite=True,
                traits=dataclasses.replace(traits, bounded=bounded))

    def _timed(self, name: str, function):
        seconds, calls = self.phi_seconds, self.phi_calls
        clock = time.perf_counter

        def timed(*args):
            start = clock()
            try:
                return function(*args)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1
        return timed


class TraceObserver(EngineObserver):
    """Turns engine events into spans and counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = {"spill.runs": 0, "spill.rows": 0,
                       "store.entries_loaded": 0, "store.entries_flushed": 0,
                       "index.commits": 0, "instances": 0}
        self.stats: list = []
        self.outcomes: list = []
        self._open: dict = {}
        self._mark = 0.0

    def run_started(self):
        self._mark = time.perf_counter()

    def cache_loaded(self, directory, entries, segments):
        self.tracer.add("store.load", self._mark, time.perf_counter())
        self.counts["store.entries_loaded"] += entries

    def phase_started(self, phase, candidate=None):
        self._open[(phase, candidate)] = time.perf_counter()

    def phase_finished(self, phase, seconds, candidate=None):
        now = time.perf_counter()
        self.tracer.add(_PHASE_SPANS.get(phase, phase),
                        self._open.pop((phase, candidate), now - seconds),
                        now)
        self._mark = now

    def cache_flushed(self, directory, entries, segments):
        self.tracer.add("store.flush", self._mark, time.perf_counter())
        self.counts["store.entries_flushed"] += entries

    def run_finished(self, result):
        self._mark = time.perf_counter()

    def index_committed(self, directory, candidate, pairs):
        if candidate is None:  # a session snapshot, after the run
            self.tracer.add("index.commit", self._mark, time.perf_counter())
        self.counts["index.commits"] += 1

    def run_spilled(self, candidate, rows, runs):
        self.counts["spill.runs"] += runs
        self.counts["spill.rows"] += rows

    def candidate_started(self, candidate, instances):
        self.counts["instances"] += instances

    def candidate_finished(self, candidate, outcome):
        self.outcomes.append(outcome)

    def comparison_stats(self, candidate, stats):
        self.stats.append(stats)


def _phi_names(config) -> set[str]:
    return {od.phi for spec in config.candidates for od in spec.ods}


def _dir_files(directory: str) -> dict[str, tuple[int, int]]:
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            info = os.stat(os.path.join(base, name))
            files[os.path.join(base, name)] = (info.st_size, info.st_mtime_ns)
    return files


def _layers(tracer: Tracer, observer: TraceObserver, wall: float, *,
            parse_s: float, parsed_bytes: int, rows: int, comparisons: int,
            confirmed: int, clusters: int, batches: int = 0,
            **extra) -> dict:
    """Every per-layer metric of one traced operation."""
    stat = {name: sum(getattr(s, name) for s in observer.stats)
            for name in ("edit_full_evals", "edit_bounded_evals",
                         "phi_cache_hits", "phi_cache_misses",
                         "phi_cache_disk_hits", "pairs_prefiltered")}
    lookups = stat["phi_cache_hits"] + stat["phi_cache_misses"]
    phi_s = sum(tracer.phi_seconds.values())
    window_s = tracer.total("window")
    covered = sum(tracer.total(name) for name in LAYER_SPANS)
    layers = {
        "xmlmodel.parse_s": parse_s,
        "xmlmodel.mb_per_s": parsed_bytes / 1e6 / parse_s if parse_s else 0.0,
        "keygen.s": tracer.total("keygen"),
        "keygen.rows": rows,
        "spill.runs": observer.counts["spill.runs"],
        "spill.rows": observer.counts["spill.rows"],
        "spill.bytes": 0,
        "window.s": window_s,
        "window.self_s": window_s - phi_s,
        "window.comparisons": comparisons,
        "window.yield": confirmed / comparisons if comparisons else 0.0,
        "similarity.phi_s": phi_s,
        "similarity.phi_calls": sum(tracer.phi_calls.values()),
        "similarity.edit_full_evals": stat["edit_full_evals"],
        "similarity.edit_bounded_evals": stat["edit_bounded_evals"],
        "similarity.memo_hit_rate": (stat["phi_cache_hits"] / lookups
                                     if lookups else 0.0),
        "similarity.prefilter_rate": (stat["pairs_prefiltered"] / comparisons
                                      if comparisons else 0.0),
        "closure.s": tracer.total("closure"),
        "closure.clusters": clusters,
        "store.s": tracer.total("store.load") + tracer.total("store.flush"),
        "store.entries_loaded": observer.counts["store.entries_loaded"],
        "store.entries_flushed": observer.counts["store.entries_flushed"],
        "store.disk_hits": stat["phi_cache_disk_hits"],
        "store.bytes": 0,
        "index.commit_s": tracer.total("index.commit"),
        "index.commits": observer.counts["index.commits"],
        "index.bytes_written": 0,
        "index.restore_s": 0.0,
        "incremental.comparisons": comparisons / batches if batches else 0.0,
        "incremental.new_pairs": confirmed / batches if batches else 0.0,
        "trace.unaccounted_share": 1.0 - covered / wall,
    }
    for metric in LAYER_METRICS:
        if metric.startswith("similarity.phi_s."):
            layers[metric] = tracer.phi_seconds.get(metric.rsplit(".", 1)[1],
                                                    0.0)
    layers.update(extra)
    return layers


def setup_detect(spec: dict):
    """The ``sxnm detect`` sequence through public calls, traced."""
    from repro.config.xml_io import load_config_file
    from repro.core import SxnmDetector, XmlFileSource
    from repro.core.keygen import generate_gk
    from repro.xmlmodel import iter_events_file, parse_file

    tracer = Tracer()
    tracer.instrument_phis(_phi_names(load_config_file(spec["config"])))
    data, stream = spec["data"], spec["stream"]
    nbytes = os.path.getsize(data)

    def call(number: int) -> tuple[dict, dict]:
        observer = TraceObserver(tracer)
        spill_bytes = 0
        start = time.perf_counter()
        config = load_config_file(spec["config"])
        if stream:
            # Streaming parse is fused into key generation (and spill),
            # so its time is inside ``keygen.s``.
            detector = SxnmDetector(
                config, stream=True, observers=[observer],
                spill_dir=os.path.join(spec["scratch"], "spill"))
            before = worker.wchar()
            result = detector.run(XmlFileSource(data))
            spill_bytes = worker.wchar() - before
        else:
            with tracer.span("xmlmodel.parse"):
                document = parse_file(data)
            with tracer.span("keygen"):
                gk = generate_gk(document, config)
            result = SxnmDetector(config, observers=[observer]).run(
                document, gk=gk)
        wall = time.perf_counter() - start
        if stream:
            # Reported for reference only: the parser alone over the
            # same file, outside the traced wall clock.
            parse_start = time.perf_counter()
            for _ in iter_events_file(data):
                pass
            parse_s = time.perf_counter() - parse_start
        else:
            parse_s = tracer.total("xmlmodel.parse")
        clusters = {name: outcome.cluster_set.duplicate_clusters()
                    for name, outcome in result.outcomes.items()}
        layers = _layers(
            tracer, observer, wall, parse_s=parse_s, parsed_bytes=nbytes,
            rows=observer.counts["instances"],
            comparisons=sum(o.comparisons for o in observer.outcomes),
            confirmed=sum(len(o.pairs) for o in observer.outcomes),
            clusters=sum(len(c) for c in clusters.values()),
            **{"spill.bytes": spill_bytes})
        return clusters, {"seconds": wall, "written": spill_bytes,
                          "digests": worker.digests(clusters),
                          "layers": layers, "spans": tracer.spans}
    return call


def setup_ingest(spec: dict):
    """An incremental session through public calls, traced; then a
    restart that restores it from the index it wrote."""
    from repro.config.xml_io import load_config_file
    from repro.xmlmodel import parse

    tracer = Tracer()
    observer = TraceObserver(tracer)
    tracer.instrument_phis(_phi_names(load_config_file(spec["config"])))
    index_dir, phi_dir = worker.session_dirs(spec, 0)
    session = worker.open_session(spec, index_dir, phi_dir,
                                  observers=[observer])
    names = [candidate.name for candidate in session.config.candidates]

    def call(number: int) -> tuple[dict, dict]:
        if number:
            raise RuntimeError("a traced session is ingested once")
        comparisons = confirmed = parsed = 0
        index_bytes = 0
        seen = _dir_files(index_dir) if index_dir else {}
        start = time.perf_counter()
        for path in spec["batches"]:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            parsed += len(text.encode("utf-8"))
            with tracer.span("xmlmodel.parse"):
                document = parse(text)
            before = sum(session.comparisons(name) for name in names)
            confirmed += sum(session.add_batch(document).values())
            comparisons += sum(session.comparisons(name)
                               for name in names) - before
            if index_dir:
                now = _dir_files(index_dir)
                index_bytes += sum(size for name, (size, mtime) in now.items()
                                   if seen.get(name) != (size, mtime))
                seen = now
        wall = time.perf_counter() - start
        clusters = worker.session_clusters(session)
        extra = {"index.bytes_written": index_bytes}
        record = {"seconds": wall, "written": 0,
                  "digests": worker.session_digests(session)}
        if index_dir:
            extra["store.bytes"] = sum(
                size for size, _ in _dir_files(phi_dir).values())
            restore_start = time.perf_counter()
            restored = worker.open_session(spec, index_dir, phi_dir)
            extra["index.restore_s"] = time.perf_counter() - restore_start
            if not restored.restored:
                raise RuntimeError("the session was not restored")
            record["restored"] = worker.session_digests(restored)
        record["layers"] = _layers(
            tracer, observer, wall, parse_s=tracer.total("xmlmodel.parse"),
            parsed_bytes=parsed,
            rows=sum(session.instance_count(name) for name in names),
            comparisons=comparisons, confirmed=confirmed,
            clusters=sum(len(c) for c in clusters.values()),
            batches=len(spec["batches"]), **extra)
        record["spans"] = tracer.spans
        return clusters, record
    return call


SETUPS = {"detect": setup_detect, "ingest": setup_ingest}
