"""Persistent cross-run φ cache: a disk spill layer under :class:`PhiCache`.

The in-memory :class:`~repro.similarity.plan.PhiCache` memoizes exact φ
scores within one run; incremental batches and threshold sweeps over
overlapping corpora still re-pay every edit-distance DP on the next
invocation.  :class:`PersistentPhiCache` closes that gap: a directory of
append-only *segment files*, each holding exact ``(φ, left, right) →
score`` entries, loaded on open and extended by atomic flushes.

Design constraints (all load-bearing):

* **Only exact scores.**  The store inherits the memo's contract — a
  persisted value is bit-identical to a fresh evaluation, so serving it
  can never change a pair, cluster, or decision under any threshold.
  Non-finite scores are rejected at :meth:`record` time and skipped
  defensively on load.
* **Append-only, atomic, content-addressed.**  A flush writes the new
  entries to a temporary file in the cache directory and publishes it
  with ``os.replace`` under a name derived from the payload checksum.
  No file is ever modified in place, so concurrent writers cannot
  corrupt each other: two racing flushes produce two valid segments
  (or, with identical content, the very same file).
* **Fail cold, never wrong.**  Every segment carries a version header,
  its payload length, a SHA-256 checksum, and the *trait fingerprints*
  of the φ functions it mentions.  Truncated, corrupted, alien, or
  stale segments are reported through one warning each and contribute
  nothing — a damaged cache degrades to a cold start, it never serves a
  wrong score.
* **Version/trait drift invalidates.**  :func:`phi_fingerprint` hashes
  a φ's registry traits together with its implementation (module,
  qualname, bytecode) — editing a φ, re-registering it with different
  traits, or switching Python versions changes the fingerprint and
  retires the entries instead of silently serving scores the current
  code would not produce.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Callable

from .registry import get_similarity, get_traits

#: First line of every segment file: format magic plus version.
SEGMENT_MAGIC = "sxnm-phi-cache"
SEGMENT_VERSION = 1
SEGMENT_SUFFIX = ".phiseg"

WarnCallback = Callable[[str], None]


def phi_fingerprint(name: str) -> str:
    """A short stable fingerprint of a φ's traits *and* implementation.

    Built from the registered callable's module, qualname, and bytecode
    plus the :class:`~repro.similarity.registry.PhiTraits` shape.  Two
    processes running the same code agree on it; changing the φ's
    implementation (or the Python version compiling it) changes it, so
    persisted entries recorded under the old behaviour are retired
    rather than served.  Unknown names fingerprint to a reserved value
    that never matches a recorded one.
    """
    try:
        function = get_similarity(name)
    except KeyError:
        return "unregistered-phi"
    traits = get_traits(name)
    parts = [
        name,
        getattr(function, "__module__", "") or "",
        getattr(function, "__qualname__", "") or "",
        str(traits.cost),
        str(traits.symmetric),
        ",".join(getattr(bound, "__qualname__", repr(bound))
                 for bound in traits.upper_bounds),
        getattr(traits.bounded, "__qualname__", "") if traits.bounded else "",
    ]
    code = getattr(function, "__code__", None)
    if code is not None:
        parts.append(code.co_code.hex())
        parts.append(repr(code.co_consts))
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _valid_key(key: tuple) -> bool:
    return (isinstance(key, tuple) and len(key) == 3
            and all(isinstance(part, str) for part in key))


class PersistentPhiCache:
    """A disk-backed, append-only store of exact φ scores.

    Parameters
    ----------
    directory:
        The cache directory.  Created on open unless ``read_only``.
    read_only:
        Never write; :meth:`flush` and :meth:`compact` become no-ops.
        ``sxnm cache status`` uses this to inspect a directory.
    warn:
        Callback receiving one human-readable line per recoverable
        problem (corrupt segment, unwritable directory, failed flush).
        All warnings are also collected in :attr:`warnings`.
    """

    def __init__(self, directory: str, read_only: bool = False,
                 warn: WarnCallback | None = None):
        self.directory = os.fspath(directory)
        self.read_only = read_only
        self.warn = warn
        #: Entries visible to :meth:`lookup` that are already persisted.
        self._loaded: dict[tuple, float] = {}
        #: Entries recorded this run, pending the next :meth:`flush`.
        self._new: dict[tuple, float] = {}
        self.segments_loaded = 0
        self.segments_written = 0
        self.entries_loaded = 0
        self.warnings: list[str] = []
        self.usable = False
        self._opened = False

    # ------------------------------------------------------------------
    # Lifecycle

    def _emit(self, message: str) -> None:
        self.warnings.append(message)
        if self.warn is not None:
            self.warn(message)

    def open(self) -> "PersistentPhiCache":
        """Load every readable segment; damaged ones warn and are skipped."""
        if self._opened:
            return self
        self._opened = True
        try:
            if not os.path.isdir(self.directory):
                if self.read_only:
                    # A missing directory is simply an empty cache.
                    self.usable = False
                    return self
                os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            self._emit(f"phi cache: cannot use directory "
                       f"{self.directory!r} ({error}); running cold")
            self.usable = False
            return self
        self.usable = True
        try:
            names = sorted(name for name in os.listdir(self.directory)
                           if name.endswith(SEGMENT_SUFFIX))
        except OSError as error:
            self._emit(f"phi cache: cannot list directory "
                       f"{self.directory!r} ({error}); running cold")
            self.usable = not self.read_only
            return self
        for name in names:
            self._load_segment(os.path.join(self.directory, name))
        return self

    def _load_segment(self, path: str) -> None:
        """Load one segment file; any problem warns once and skips it."""
        name = os.path.basename(path)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            self._emit(f"phi cache: cannot read segment {name} ({error}); "
                       f"ignoring it")
            return
        header, _, rest = raw.partition(b"\n")
        if header.decode("utf-8", "replace").split() \
                != [SEGMENT_MAGIC, f"v{SEGMENT_VERSION}"]:
            self._emit(f"phi cache: segment {name} has an unrecognized "
                       f"header (not a v{SEGMENT_VERSION} "
                       f"{SEGMENT_MAGIC} file); ignoring it")
            return
        meta_line, _, payload = rest.partition(b"\n")
        try:
            meta = json.loads(meta_line.decode("utf-8"))
            payload_bytes = int(meta["payload_bytes"])
            checksum = str(meta["sha256"])
            fingerprints = dict(meta["fingerprints"])
        except (ValueError, KeyError, TypeError) as error:
            self._emit(f"phi cache: segment {name} has a corrupt metadata "
                       f"line ({error}); ignoring it")
            return
        if len(payload) != payload_bytes:
            self._emit(f"phi cache: segment {name} is truncated "
                       f"({len(payload)} of {payload_bytes} payload bytes); "
                       f"ignoring it")
            return
        if hashlib.sha256(payload).hexdigest() != checksum:
            self._emit(f"phi cache: segment {name} fails its checksum; "
                       f"ignoring it")
            return
        stale = sorted(phi for phi, recorded in fingerprints.items()
                       if phi_fingerprint(phi) != recorded)
        if stale:
            self._emit(f"phi cache: segment {name} was recorded under a "
                       f"different implementation of "
                       f"{', '.join(repr(phi) for phi in stale)}; "
                       f"dropping those entries")
        stale_set = set(stale)
        loaded_here = 0
        for line in payload.splitlines():
            try:
                phi, left, right, value = json.loads(line.decode("utf-8"))
            except (ValueError, TypeError):
                continue  # unreachable behind the checksum; stay safe
            if phi in stale_set or phi not in fingerprints:
                continue
            if not isinstance(value, float) or not math.isfinite(value):
                continue
            key = (phi, left, right)
            if _valid_key(key) and key not in self._new:
                self._loaded[key] = value
                loaded_here += 1
        self.segments_loaded += 1
        self.entries_loaded += loaded_here

    # ------------------------------------------------------------------
    # The in-memory view

    def __len__(self) -> int:
        return len(self._loaded) + len(self._new)

    @property
    def pending(self) -> int:
        """Entries recorded but not yet flushed to disk."""
        return len(self._new)

    def lookup(self, key: tuple) -> float | None:
        """The persisted (or pending) exact score for ``key``, if any."""
        value = self._loaded.get(key)
        if value is not None:
            return value
        return self._new.get(key)

    def record(self, key: tuple, value: float) -> bool:
        """Queue one exact score for persistence.

        Returns ``True`` only for a *new*, finite, well-formed entry;
        duplicates of already-visible entries and non-finite scores are
        rejected (NaN and ±inf can never round-trip bit-identically into
        a sound memo, so they are refused outright).
        """
        if not _valid_key(key):
            return False
        if not isinstance(value, float) or not math.isfinite(value):
            return False
        if key in self._loaded or key in self._new:
            return False
        self._new[key] = value
        return True

    # ------------------------------------------------------------------
    # Disk writes

    def _write_segment(self, entries: dict[tuple, float]) -> str:
        """Write ``entries`` as one new segment file; returns its name."""
        lines = [json.dumps([phi, left, right, value], ensure_ascii=True)
                 for (phi, left, right), value in sorted(entries.items())]
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        checksum = hashlib.sha256(payload).hexdigest()
        fingerprints = {phi: phi_fingerprint(phi)
                        for phi in sorted({key[0] for key in entries})}
        meta = json.dumps({
            "entries": len(entries),
            "payload_bytes": len(payload),
            "sha256": checksum,
            "fingerprints": fingerprints,
        }, sort_keys=True)
        blob = (f"{SEGMENT_MAGIC} v{SEGMENT_VERSION}\n{meta}\n"
                .encode("utf-8") + payload)
        name = f"segment-{checksum[:16]}{SEGMENT_SUFFIX}"
        final = os.path.join(self.directory, name)
        fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                         prefix=".phiseg-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_path, final)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return name

    def flush(self) -> int:
        """Persist the pending entries as one atomic segment.

        Returns the number of entries written.  Read-only stores,
        unusable directories, and empty deltas flush nothing; a failed
        write warns once and keeps the entries pending (a later flush
        may succeed), but never raises.
        """
        if self.read_only or not self.usable or not self._new:
            return 0
        entries = dict(self._new)
        try:
            self._write_segment(entries)
        except OSError as error:
            self._emit(f"phi cache: cannot write to {self.directory!r} "
                       f"({error}); {len(entries)} new entries stay "
                       f"in memory only")
            return 0
        self.segments_written += 1
        self._loaded.update(entries)
        self._new.clear()
        return len(entries)

    def compact(self) -> int:
        """Rewrite every visible entry as a single segment.

        Loads nothing new — it folds the segments *this instance* read
        (plus pending entries) into one file and removes the files it
        replaces.  Returns the number of entries in the compacted
        segment, or 0 when there is nothing to do or writes fail.
        """
        if self.read_only or not self.usable:
            return 0
        entries = dict(self._loaded)
        entries.update(self._new)
        if not entries:
            return 0
        try:
            keep = self._write_segment(entries)
        except OSError as error:
            self._emit(f"phi cache: compaction failed ({error}); "
                       f"keeping existing segments")
            return 0
        self.segments_written += 1
        try:
            for name in os.listdir(self.directory):
                if name.endswith(SEGMENT_SUFFIX) and name != keep:
                    os.unlink(os.path.join(self.directory, name))
        except OSError as error:
            self._emit(f"phi cache: compaction could not remove an old "
                       f"segment ({error}); duplicates are harmless")
        self._loaded = entries
        self._new.clear()
        return len(entries)
