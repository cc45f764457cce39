"""The DetectionIndex: one persistent, versioned home for run state.

Historically the per-run detection state was scattered: GK/CS tables as
ad-hoc XML (:mod:`repro.core.storage`), the incremental session's sorted
key lists and union-find forest purely in memory, and only the φ spill
store (:mod:`repro.similarity.store`) with checksummed, atomic,
fault-tolerant persistence.  :class:`DetectionIndex` unifies them: a
directory holding

* ``MANIFEST.json`` — the run manifest: format magic and version, the
  *config fingerprint* (a digest of every result-affecting parameter),
  the *corpus checksum* of the detected document, the run parameters
  (window override, key selection), per-phase counters, the set of
  candidates whose detection state is committed, and the role → segment
  mapping.  Rewritten atomically (tempfile + ``os.replace``) after every
  commit, so a killed process always leaves a manifest that references
  only fully written segments.
* content-addressed *segment files* (``segment-<checksum16>.xidx``) —
  one per role (``gk``, ``run/<candidate>``, ``session``), each carrying
  a version header, its payload length, a SHA-256 checksum, and the
  config fingerprint it was recorded under.  GK rows are stored with an
  **interned string pool**: every distinct key/OD string appears once
  and rows reference it by position, so loading yields rows whose equal
  strings are one object.

The fault discipline mirrors ``similarity/store.py`` exactly: **fail
cold, never wrong**.  Truncated, corrupted, alien-version, or
stale-fingerprint segments (and unreadable or corrupt manifests) warn
once each through the observer callback and contribute nothing; a
damaged index degrades to a cold start, it never resumes wrong state.

Determinism: committed candidate state is ``(pairs, comparisons,
filtered, timings, stats)``.  Clusters are *not* stored —
:class:`~repro.core.clusters.ClusterSet` canonicalizes its order, so
rebuilding the closure from the persisted pairs over the persisted GK
universe reproduces clusters (and the cluster ids feeding descendant
evidence) bit-identically, regardless of union order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable

from .gk import GkRow, GkTable

#: First line of every segment file: format magic plus version.
INDEX_MAGIC = "sxnm-index"
INDEX_VERSION = 1
SEGMENT_SUFFIX = ".xidx"
MANIFEST_NAME = "MANIFEST.json"

WarnCallback = Callable[[str], None]


# ---------------------------------------------------------------------------
# Fingerprints


def config_fingerprint(config) -> str:
    """A short stable digest of every result-affecting config parameter.

    Covers the candidate relations (PATH/OD/KEY), per-candidate and
    global detection parameters (window, thresholds, descendant usage
    and weights, φ names) — everything that can change detected pairs.
    Performance knobs (caches, streaming) are
    deliberately excluded: they change work, never results, so flipping
    them must not retire a resumable run.
    """
    candidates = []
    for spec in sorted(config.candidates, key=lambda spec: spec.name):
        candidates.append({
            "name": spec.name,
            "xpath": spec.xpath,
            "paths": sorted((entry.pid, entry.rel_path)
                            for entry in spec.paths),
            "ods": [(od.pid, repr(od.relevance), od.phi)
                    for od in spec.ods],
            "keys": [[(entry.pid, entry.order, entry.pattern)
                      for entry in sorted(key, key=lambda e: e.order)]
                     for key in spec.keys],
            "window": spec.window_size,
            "od_threshold": repr(spec.od_threshold),
            "desc_threshold": repr(spec.desc_threshold),
            "duplicate_threshold": repr(spec.duplicate_threshold),
            "use_descendants": spec.use_descendants,
            "desc_phi": spec.desc_phi,
            "desc_weights": sorted((name, repr(value)) for name, value
                                   in spec.desc_weights.items()),
        })
    shape = {
        "candidates": candidates,
        "window": config.window_size,
        "od_threshold": repr(config.od_threshold),
        "desc_threshold": repr(config.desc_threshold),
        "duplicate_threshold": repr(config.duplicate_threshold),
    }
    blob = json.dumps(shape, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def corpus_checksum(source) -> str:
    """A short digest identifying the detected corpus.

    XML text hashes directly; a file-backed source (anything with a
    ``path`` attribute, e.g. a streaming ``XmlFileSource``) hashes the
    file bytes in bounded chunks; a parsed document hashes its canonical
    (non-pretty) serialization, which is deterministic for equal trees.
    """
    if not isinstance(source, str):
        path = getattr(source, "path", None)
        if path is not None:
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                while True:
                    chunk = handle.read(1 << 16)
                    if not chunk:
                        break
                    digest.update(chunk)
            return digest.hexdigest()[:16]
        from ..xmlmodel import serialize
        source = serialize(source, pretty=False)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def run_signature(window, key_selection) -> dict:
    """Canonical form of the run-level overrides that affect results."""
    if key_selection is None:
        selection = None
    elif isinstance(key_selection, int):
        selection = [key_selection]
    else:
        selection = list(key_selection)
    return {"window": window, "key_selection": selection}


# ---------------------------------------------------------------------------
# GK encoding with an interned string pool


def _encode_tables(tables: dict[str, GkTable]) -> dict:
    """Serialize GK tables with every distinct string pooled once."""
    pool: dict[str, int] = {}
    strings: list[str] = []

    def ref(value: str | None) -> int:
        if value is None:
            return -1
        position = pool.get(value)
        if position is None:
            position = pool[value] = len(strings)
            strings.append(value)
        return position

    encoded = {}
    for name, table in tables.items():
        encoded[name] = {
            "keys": table.key_count,
            "ods": table.od_count,
            "rows": [[row.eid,
                      [ref(key) for key in row.keys],
                      [ref(od) for od in row.ods],
                      [[child, list(eids)]
                       for child, eids in row.children.items()]]
                     for row in table],
        }
    return {"strings": strings, "tables": encoded}


def _decode_tables(payload: dict) -> dict[str, GkTable]:
    """Rebuild GK tables; equal strings come back as one shared object."""
    strings = payload["strings"]

    def deref(position: int) -> str | None:
        return None if position < 0 else strings[position]

    tables: dict[str, GkTable] = {}
    for name, data in payload["tables"].items():
        table = GkTable(name, key_count=int(data["keys"]),
                        od_count=int(data["ods"]))
        for eid, keys, ods, children in data["rows"]:
            row = GkRow(int(eid), [deref(k) for k in keys],
                        [deref(o) for o in ods],
                        {child: [int(e) for e in eids]
                         for child, eids in children})
            table.add(row)
        tables[name] = table
    return tables


def _encode_pairs(pairs) -> list[list[int]]:
    return [[left, right] for left, right in sorted(pairs)]


def _decode_pairs(encoded) -> set[tuple[int, int]]:
    return {(int(left), int(right)) for left, right in encoded}


class DetectionIndex:
    """A versioned on-disk directory of resumable detection state.

    Parameters
    ----------
    directory:
        The index directory.  Created on open unless ``read_only``.
    read_only:
        Never write; commits and :meth:`compact` become no-ops (the
        ``sxnm index status`` path).
    warn:
        Callback receiving one human-readable line per recoverable
        problem (damaged manifest or segment, unwritable directory).
        All warnings are also collected in :attr:`warnings`.
    """

    def __init__(self, directory: str, read_only: bool = False,
                 warn: WarnCallback | None = None):
        self.directory = os.fspath(directory)
        self.read_only = read_only
        self.warn = warn
        self.manifest: dict = self._empty_manifest()
        self.warnings: list[str] = []
        self.usable = False
        self.segments_loaded = 0
        self.segments_written = 0
        self._opened = False
        #: Per-role payload cache — load_gk/load_candidate hit disk once.
        self._payloads: dict[str, dict] = {}
        #: Roles whose segment already failed to load — warn once, not
        #: once per lookup.
        self._failed: set[str] = set()
        #: Tables decoded from the on-disk pool (interned rows).
        self._tables: dict[str, GkTable] | None = None

    # ------------------------------------------------------------------
    # Lifecycle

    @staticmethod
    def _empty_manifest() -> dict:
        return {
            "magic": INDEX_MAGIC,
            "version": INDEX_VERSION,
            "config_fingerprint": None,
            "corpus_checksum": None,
            "run_params": None,
            "counters": {},
            "completed": [],
            "segments": {},
        }

    def _emit(self, message: str) -> None:
        self.warnings.append(message)
        if self.warn is not None:
            self.warn(message)

    def open(self) -> "DetectionIndex":
        """Create/inspect the directory and load the manifest."""
        if self._opened:
            return self
        self._opened = True
        try:
            if not os.path.isdir(self.directory):
                if self.read_only:
                    self.usable = False
                    return self
                os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            self._emit(f"detection index: cannot use directory "
                       f"{self.directory!r} ({error}); running without it")
            self.usable = False
            return self
        self.usable = True
        self._load_manifest()
        return self

    def _load_manifest(self) -> None:
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.isfile(path):
            return  # a fresh index: the empty manifest stands
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            self._emit(f"detection index: manifest in {self.directory!r} "
                       f"is unreadable ({error}); starting cold")
            return
        if (not isinstance(manifest, dict)
                or manifest.get("magic") != INDEX_MAGIC
                or manifest.get("version") != INDEX_VERSION):
            self._emit(f"detection index: manifest in {self.directory!r} "
                       f"is not a v{INDEX_VERSION} {INDEX_MAGIC} manifest; "
                       f"starting cold")
            return
        base = self._empty_manifest()
        base.update(manifest)
        base["segments"] = dict(manifest.get("segments") or {})
        base["completed"] = list(manifest.get("completed") or [])
        base["counters"] = dict(manifest.get("counters") or {})
        self.manifest = base

    def _flush_manifest(self) -> bool:
        """Atomically publish the manifest; a failed write warns once."""
        if self.read_only or not self.usable:
            return False
        blob = json.dumps(self.manifest, sort_keys=True, indent=1)
        try:
            fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                             prefix=".manifest-",
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(blob)
                os.replace(temp_path,
                           os.path.join(self.directory, MANIFEST_NAME))
            except OSError:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._emit(f"detection index: cannot write manifest in "
                       f"{self.directory!r} ({error}); state stays in "
                       f"memory only")
            return False
        return True

    # ------------------------------------------------------------------
    # Run identity

    @property
    def fingerprint(self) -> str | None:
        return self.manifest.get("config_fingerprint")

    @property
    def completed(self) -> list[str]:
        return list(self.manifest.get("completed") or [])

    def counters(self) -> dict:
        return dict(self.manifest.get("counters") or {})

    def bump(self, counter: str, delta: int = 1) -> None:
        counters = self.manifest.setdefault("counters", {})
        counters[counter] = counters.get(counter, 0) + delta

    def resume_mismatch(self, config, corpus: str | None,
                        params: dict | None) -> list[str]:
        """Why this index cannot resume the described run (empty = can).

        Checks the config fingerprint, the corpus checksum, and the run
        parameters recorded in the manifest; an index that never
        committed anything cannot resume either.
        """
        problems = []
        recorded = self.manifest.get("config_fingerprint")
        if recorded is None:
            problems.append("the index has no committed run to resume")
            return problems
        if recorded != config_fingerprint(config):
            problems.append(
                f"config fingerprint mismatch (index {recorded}, "
                f"run {config_fingerprint(config)})")
        if corpus is not None \
                and self.manifest.get("corpus_checksum") != corpus:
            problems.append(
                f"corpus checksum mismatch (index "
                f"{self.manifest.get('corpus_checksum')}, run {corpus})")
        if params is not None \
                and self.manifest.get("run_params") != params:
            problems.append(
                f"run parameter mismatch (index "
                f"{self.manifest.get('run_params')}, run {params})")
        return problems

    def begin_run(self, config, corpus: str | None,
                  params: dict | None) -> None:
        """Start a fresh run: stamp identity, clear committed state.

        Cumulative counters survive (they audit the directory's life);
        the completed set and run segments do not — a non-resume run
        re-detects everything.
        """
        counters = self.counters()
        counters["runs"] = counters.get("runs", 0) + 1
        segments = {role: name
                    for role, name in self.manifest["segments"].items()
                    if not role.startswith("run/")}
        self.manifest = self._empty_manifest()
        self.manifest["config_fingerprint"] = config_fingerprint(config)
        self.manifest["corpus_checksum"] = corpus
        self.manifest["run_params"] = params
        self.manifest["counters"] = counters
        self.manifest["segments"] = segments
        self._payloads = {key: value for key, value in self._payloads.items()
                          if not key.startswith("run/")}
        self._flush_manifest()

    def initialize(self, config) -> None:
        """``sxnm index init``: stamp an empty index with the config."""
        self.manifest = self._empty_manifest()
        self.manifest["config_fingerprint"] = config_fingerprint(config)
        self._payloads.clear()
        self._tables = None
        self._flush_manifest()

    # ------------------------------------------------------------------
    # Segments

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.directory, os.path.basename(name))

    def _write_segment(self, role: str, payload_obj) -> str | None:
        """Write one role's payload as an atomic segment; returns its name."""
        if self.read_only or not self.usable:
            return None
        payload = json.dumps(payload_obj, ensure_ascii=True,
                             sort_keys=True).encode("utf-8")
        checksum = hashlib.sha256(payload).hexdigest()
        meta = json.dumps({
            "role": role,
            "payload_bytes": len(payload),
            "sha256": checksum,
            "config_fingerprint": self.manifest.get("config_fingerprint"),
        }, sort_keys=True)
        blob = (f"{INDEX_MAGIC} v{INDEX_VERSION}\n{meta}\n"
                .encode("utf-8") + payload)
        name = f"segment-{checksum[:16]}{SEGMENT_SUFFIX}"
        try:
            fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                             prefix=".xidx-", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(temp_path, self._segment_path(name))
            except OSError:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self._emit(f"detection index: cannot write to "
                       f"{self.directory!r} ({error}); {role!r} state "
                       f"stays in memory only")
            return None
        self.segments_written += 1
        return name

    def _load_segment(self, role: str) -> dict | None:
        """Load the manifest's segment for ``role``; faults warn and skip."""
        cached = self._payloads.get(role)
        if cached is not None:
            return cached
        if role in self._failed:
            return None
        name = self.manifest.get("segments", {}).get(role)
        if not name:
            return None
        self._failed.add(role)  # cleared below on a successful load
        path = self._segment_path(name)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            self._emit(f"detection index: cannot read segment {name} "
                       f"({error}); ignoring it")
            return None
        header, _, rest = raw.partition(b"\n")
        if header.decode("utf-8", "replace").split() \
                != [INDEX_MAGIC, f"v{INDEX_VERSION}"]:
            self._emit(f"detection index: segment {name} has an "
                       f"unrecognized header (not a v{INDEX_VERSION} "
                       f"{INDEX_MAGIC} file); ignoring it")
            return None
        meta_line, _, payload = rest.partition(b"\n")
        try:
            meta = json.loads(meta_line.decode("utf-8"))
            payload_bytes = int(meta["payload_bytes"])
            checksum = str(meta["sha256"])
            recorded_role = str(meta["role"])
            recorded_fingerprint = meta["config_fingerprint"]
        except (ValueError, KeyError, TypeError) as error:
            self._emit(f"detection index: segment {name} has a corrupt "
                       f"metadata line ({error}); ignoring it")
            return None
        if len(payload) != payload_bytes:
            self._emit(f"detection index: segment {name} is truncated "
                       f"({len(payload)} of {payload_bytes} payload "
                       f"bytes); ignoring it")
            return None
        if hashlib.sha256(payload).hexdigest() != checksum:
            self._emit(f"detection index: segment {name} fails its "
                       f"checksum; ignoring it")
            return None
        if recorded_role != role:
            self._emit(f"detection index: segment {name} holds "
                       f"{recorded_role!r} state, not {role!r}; "
                       f"ignoring it")
            return None
        if recorded_fingerprint != self.manifest.get("config_fingerprint"):
            self._emit(f"detection index: segment {name} was recorded "
                       f"under a different configuration fingerprint; "
                       f"ignoring it")
            return None
        try:
            payload_obj = json.loads(payload.decode("utf-8"))
        except ValueError:  # unreachable behind the checksum; stay safe
            self._emit(f"detection index: segment {name} payload does "
                       f"not parse; ignoring it")
            return None
        self.segments_loaded += 1
        self._failed.discard(role)
        self._payloads[role] = payload_obj
        return payload_obj

    def _commit(self, role: str, payload_obj) -> bool:
        """Write the segment, repoint the manifest, publish both."""
        name = self._write_segment(role, payload_obj)
        if name is None:
            return False
        self.manifest.setdefault("segments", {})[role] = name
        self._payloads[role] = payload_obj
        self._failed.discard(role)
        return self._flush_manifest()

    # ------------------------------------------------------------------
    # GK tables

    def save_gk(self, tables: dict[str, GkTable]) -> bool:
        """Persist the run's GK tables (one pooled segment)."""
        committed = self._commit("gk", _encode_tables(tables))
        if committed:
            self.bump("gk_rows",
                      sum(len(table) for table in tables.values()))
            self._flush_manifest()
        self._tables = None
        return committed

    def load_gk(self) -> dict[str, GkTable] | None:
        """The persisted GK tables with interned strings, if readable."""
        if self._tables is not None:
            return self._tables
        payload = self._load_segment("gk")
        if payload is None:
            return None
        try:
            self._tables = _decode_tables(payload)
        except (KeyError, TypeError, ValueError, IndexError) as error:
            self._emit(f"detection index: GK segment does not decode "
                       f"({error}); ignoring it")
            self._failed.add("gk")
            self._payloads.pop("gk", None)
            return None
        return self._tables

    # ------------------------------------------------------------------
    # Spilled (out-of-core) GK run state

    def save_spill(self, state: dict) -> bool:
        """Persist out-of-core run-file state (names, shapes, row counts).

        ``state`` maps candidate name to the
        :meth:`~repro.core.spill.SpilledGkTable.state` manifest entry;
        the run files themselves live under ``<directory>/spill`` and
        carry their own checksums.  Run files no longer referenced by
        the new state are deleted best-effort, mirroring ``compact``.
        """
        committed = self._commit("spill", state)
        if committed:
            self.bump("spill_rows",
                      sum(entry.get("rows", 0) for entry in state.values()))
            self._flush_manifest()
            referenced = set()
            for entry in state.values():
                referenced.update(entry.get("doc", []))
                for names in entry.get("keys", []):
                    referenced.update(names)
            spill_dir = os.path.join(self.directory, "spill")
            if os.path.isdir(spill_dir):
                from .spill import SpillStore
                SpillStore(spill_dir).remove_unreferenced(referenced)
        return committed

    def load_spill(self) -> dict | None:
        """The persisted spill state, if its segment is readable.

        Only the manifest-level state is validated here; callers must
        re-validate every referenced run file's checksum before trusting
        its rows (``SpillingKeySource.restore_spilled`` does).
        """
        payload = self._load_segment("spill")
        if not isinstance(payload, dict):
            return None
        return payload

    # ------------------------------------------------------------------
    # Per-candidate run state

    def commit_candidate(self, name: str, pairs, comparisons: int,
                         filtered: int, window_seconds: float,
                         closure_seconds: float,
                         stats: dict | None) -> bool:
        """Commit one candidate's completed detection state."""
        payload = {
            "pairs": _encode_pairs(pairs),
            "comparisons": comparisons,
            "filtered": filtered,
            "window_seconds": window_seconds,
            "closure_seconds": closure_seconds,
            "stats": stats,
        }
        committed = self._commit(f"run/{name}", payload)
        if committed:
            completed = self.manifest.setdefault("completed", [])
            if name not in completed:
                completed.append(name)
            self.bump("candidates_committed")
            self.bump("window_comparisons", comparisons)
            self.bump("pairs_confirmed", len(payload["pairs"]))
            self._flush_manifest()
        return committed

    def load_candidate(self, name: str) -> dict | None:
        """The committed state for ``name`` (decoded), if readable."""
        if name not in self.manifest.get("completed", []):
            return None
        payload = self._load_segment(f"run/{name}")
        if payload is None:
            return None
        try:
            return {
                "pairs": _decode_pairs(payload["pairs"]),
                "comparisons": int(payload["comparisons"]),
                "filtered": int(payload["filtered"]),
                "window_seconds": float(payload["window_seconds"]),
                "closure_seconds": float(payload["closure_seconds"]),
                "stats": payload.get("stats"),
            }
        except (KeyError, TypeError, ValueError) as error:
            self._emit(f"detection index: run state for {name!r} does "
                       f"not decode ({error}); ignoring it")
            self._failed.add(f"run/{name}")
            self._payloads.pop(f"run/{name}", None)
            return None

    # ------------------------------------------------------------------
    # Incremental session state

    def commit_session(self, eid_offset: int, batches: int,
                       states: dict) -> bool:
        """Commit an incremental session snapshot.

        ``states`` maps candidate name to ``(table, pairs, comparisons)``
        — the :class:`~repro.core.incremental._CandidateState` essence.
        Sorted key lists are *not* stored: they are provably
        ``sorted((key, eid))`` of the table (bisect-maintained), so the
        restore rebuilds them bit-identically by sorting.
        """
        tables = {name: table for name, (table, _, _) in states.items()}
        payload = {
            "eid_offset": eid_offset,
            "batches": batches,
            "gk": _encode_tables(tables),
            "pairs": {name: _encode_pairs(pairs)
                      for name, (_, pairs, _) in states.items()},
            "comparisons": {name: comparisons
                            for name, (_, _, comparisons)
                            in states.items()},
        }
        committed = self._commit("session", payload)
        if committed:
            self.bump("batches_committed")
            self._flush_manifest()
        return committed

    def load_session(self) -> dict | None:
        """The committed incremental session, decoded, if readable."""
        payload = self._load_segment("session")
        if payload is None:
            return None
        try:
            tables = _decode_tables(payload["gk"])
            return {
                "eid_offset": int(payload["eid_offset"]),
                "batches": int(payload["batches"]),
                "tables": tables,
                "pairs": {name: _decode_pairs(encoded)
                          for name, encoded in payload["pairs"].items()},
                "comparisons": {name: int(count) for name, count
                                in payload["comparisons"].items()},
            }
        except (KeyError, TypeError, ValueError, IndexError) as error:
            self._emit(f"detection index: session state does not decode "
                       f"({error}); ignoring it")
            self._failed.add("session")
            self._payloads.pop("session", None)
            return None

    # ------------------------------------------------------------------
    # Operations (sxnm index …)

    def status(self) -> dict:
        """A human-reportable summary of the index directory."""
        segments = self.manifest.get("segments", {})
        on_disk = []
        if os.path.isdir(self.directory):
            on_disk = [name for name in os.listdir(self.directory)
                       if name.endswith(SEGMENT_SUFFIX)]
        return {
            "directory": self.directory,
            "usable": self.usable,
            "config_fingerprint": self.manifest.get("config_fingerprint"),
            "corpus_checksum": self.manifest.get("corpus_checksum"),
            "run_params": self.manifest.get("run_params"),
            "completed": self.completed,
            "counters": self.counters(),
            "segments": dict(segments),
            "segment_files": len(on_disk),
            "orphan_segments": sorted(set(on_disk)
                                      - set(segments.values())),
        }

    def compact(self) -> int:
        """Remove segment files the manifest no longer references.

        Content-addressed writes leave earlier generations behind (every
        commit publishes a new file); compaction deletes the orphans.
        Returns the number of files removed.
        """
        if self.read_only or not self.usable:
            return 0
        referenced = set(self.manifest.get("segments", {}).values())
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError as error:
            self._emit(f"detection index: cannot list {self.directory!r} "
                       f"({error}); nothing compacted")
            return 0
        for name in names:
            if not name.endswith(SEGMENT_SUFFIX) or name in referenced:
                continue
            try:
                os.unlink(self._segment_path(name))
                removed += 1
            except OSError as error:
                self._emit(f"detection index: compaction could not remove "
                           f"{name} ({error}); leaving it")
        return removed
