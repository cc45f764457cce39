"""Run one benchmark operation, repeatedly, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  The worker sets up (imports, config load, detector or
session construction), prints ``READY``, then calls the operation until
its time budget is spent (at least once) and prints one JSON line: the
set-up's speedometer figures, then per call the wall seconds and its
speedometer figures (see ``calibrate.py``), the bytes written, the
output digests (see ``digests``) and the process's peak RSS so far; then
the top candidate's clusters.  The runner times set-up from process
start to ``READY``; with ``setup_only`` the worker prints the set-up's
figures and exits.

Spec keys: ``op`` (``detect``, ``ingest`` or ``restore``), ``config``,
``scratch`` (a directory of the worker's own), ``top`` (the candidate
scored for ``f1``), ``budget`` (seconds), ``trace`` (0 or 1),
``speedometer`` (tick during set-up and calls), ``setup_only``, plus
``data``/``stream`` for ``detect``, ``batches``/``persist`` for
``ingest``, and ``index_dir``/``phi_dir`` for ``restore``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time

import calibrate


# Ticks during set-up and timed calls when the spec asks for it; see
# ``calibrate.py``.
METER: calibrate.Speedometer | None = None


def wchar() -> int:
    """Bytes this process has written so far (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM`` in ``/proc/self/status``).

    Not ``ru_maxrss``: Linux carries the peak of the memory image an
    ``exec`` replaces into the new program's ``ru_maxrss``, so a worker
    spawned by the runner would report at least the runner's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _digest(value) -> str:
    blob = json.dumps(value, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests(clusters: dict[str, list[list[int]]],
            pairs: dict[str, set] | None = None) -> dict[str, str]:
    """A canonical digest of each candidate's duplicate clusters and, when
    the output has them, of its confirmed pairs (``<candidate>.pairs``).
    The ``sxnm detect`` report lists clusters only; a session has both."""
    result = {name: _digest(sorted(sorted(group) for group in groups))
              for name, groups in clusters.items()}
    for name, found in (pairs or {}).items():
        result[name + ".pairs"] = _digest(sorted(found))
    return result


def parse_report(path: str) -> dict[str, list[list[int]]]:
    """Duplicate clusters per candidate from an ``sxnm detect`` report."""
    clusters: dict[str, list[list[int]]] = {}
    current = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("candidate "):
                current = line[len("candidate "):line.index(":")]
                clusters[current] = []
            elif line.startswith("  eids [") and current is not None:
                clusters[current].append(json.loads(line.strip()[5:]))
    return clusters


def session_clusters(session) -> dict[str, list[list[int]]]:
    return {spec.name: session.cluster_set(spec.name).duplicate_clusters()
            for spec in session.config.candidates}


def session_digests(session) -> dict[str, str]:
    return digests(session_clusters(session),
                   {spec.name: session.pairs(spec.name)
                    for spec in session.config.candidates})


def open_session(spec: dict, index_dir=None, phi_dir=None, observers=()):
    from repro.config.xml_io import load_config_file
    from repro.core.incremental import IncrementalSxnm

    config = load_config_file(spec["config"])
    if phi_dir:
        config.phi_cache_dir = phi_dir
    return IncrementalSxnm(config, index_dir=index_dir, observers=observers)


def session_dirs(spec: dict, call: int):
    """Fresh index and φ store directories for one persisted session."""
    if not spec.get("persist"):
        return None, None
    base = os.path.join(spec["scratch"], f"session-{call}")
    return os.path.join(base, "index"), os.path.join(base, "phi")


def setup_detect(spec: dict):
    """``sxnm detect`` in-process: the clock runs from the config and
    data files on disk to the report on disk."""
    from repro.cli import main as cli_main
    from repro.config.xml_io import load_config_file
    from repro.core import SxnmDetector

    # Set-up ends with a constructed detector; ``sxnm detect`` builds its
    # own again inside the timed call, as it does on every invocation.
    SxnmDetector(load_config_file(spec["config"]),
                 stream=spec["stream"] or None)
    report = os.path.join(spec["scratch"], "report.txt")

    def call(number: int) -> tuple[dict, dict]:
        argv = ["detect", "-c", spec["config"], spec["data"],
                "--report", report]
        spill = os.path.join(spec["scratch"], f"spill-{number}")
        if spec["stream"]:
            argv += ["--stream", "--spill-dir", spill]
        before = wchar()
        with calibrate.measured(METER) as timing, \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        written = wchar() - before
        if code != 0:
            raise RuntimeError(f"sxnm detect exited with {code}")
        shutil.rmtree(spill, ignore_errors=True)
        clusters = parse_report(report)
        return clusters, dict(timing, written=written,
                              digests=digests(clusters))
    return call


def setup_ingest(spec: dict):
    """Ingest every batch file into a new session; index commits and φ
    store flushes (when ``persist`` is set) happen inside the timed
    calls.  Each call gets a new session; the last one's directories
    are kept for ``restore`` workers."""
    sessions = [open_session(spec, *session_dirs(spec, 0))]

    def call(number: int) -> tuple[dict, dict]:
        if number:
            index_dir, _ = session_dirs(spec, number - 1)
            if index_dir:
                shutil.rmtree(os.path.dirname(index_dir))
            sessions[0] = open_session(spec, *session_dirs(spec, number))
        session = sessions[0]
        before = wchar()
        with calibrate.measured(METER) as timing:
            for path in spec["batches"]:
                with open(path, encoding="utf-8") as handle:
                    session.add_batch(handle.read())
        written = wchar() - before
        index_dir, phi_dir = session_dirs(spec, number)
        return session_clusters(session), dict(
            timing, written=written, digests=session_digests(session),
            index_dir=index_dir, phi_dir=phi_dir)
    return call


def setup_restore(spec: dict):
    """Reopen the session an ``ingest`` call committed; the restore is
    part of set-up, so nothing is timed after ``READY``."""
    session = open_session(spec, spec["index_dir"], spec["phi_dir"])

    def call(number: int) -> tuple[dict, dict]:
        if not session.restored:
            raise RuntimeError("the session was not restored from its index")
        return session_clusters(session), {
            "seconds": 0.0, "written": 0, "digests": session_digests(session)}
    return call


SETUPS = {"detect": setup_detect, "ingest": setup_ingest,
          "restore": setup_restore}


def main(argv: list[str]) -> int:
    global METER
    spec = json.loads(argv[1])
    if spec.get("speedometer"):
        METER = calibrate.Speedometer()
        METER.start()
    if spec.get("trace"):
        import tracing
        call = tracing.SETUPS[spec["op"]](spec)
    else:
        call = SETUPS[spec["op"]](spec)
    if METER:
        METER.stop()   # the ticks since start-up calibrate set-up
    print("READY", flush=True)
    setup = METER.figures() if METER else {}
    if spec.get("setup_only"):
        print(json.dumps({"setup": setup}), flush=True)
        return 0
    calls = []
    start = time.perf_counter()
    while True:
        clusters, record = call(len(calls))
        record["rss_kb"] = peak_rss_kb()
        calls.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(calls) > spec.get("budget", 0):
            break
    print(json.dumps({"setup": setup, "calls": calls,
                      "top": clusters.get(spec["top"], [])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
