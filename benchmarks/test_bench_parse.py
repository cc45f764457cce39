"""Machine-readable perf record for the XML parser's regex tokenizer.

Times the parser's three entry points — ``parse`` on a string,
``parse_file`` and ``iter_events_file`` — against the character-at-a-time
oracle of the test suite (``tests/xmlmodel/reference_scanner.py``) on two
generated corpora: dirty movies (data set 1's shape, attribute-bearing
tags) and FreeDB discs (data set 3's shape, many small elements).  Both
sides build documents with the parser's own tree builder, so the ratio
measures the scanner alone.

Seconds are the best of ``TIMING_RUNS`` runs in this one process, taken
without ``tracemalloc``, and the record states the usable cores of the
host that wrote it.  Event identity with the oracle is asserted for
every corpus and entry point.  The speed claim — the file entry points
at least ``SPEEDUP_TARGET`` times the oracle's throughput — is asserted
only from ``ASSERT_FLOOR_MOVIES`` movies up: on a tiny smoke corpus a
few milliseconds of timer noise swamp the ratio, so it is only recorded
(``speedup_asserted`` says which happened).

``SXNM_BENCH_PARSE_MOVIES`` sets the movies corpus size; the FreeDB
corpus has five times as many discs.
"""

import json
import os
import pathlib
import time
import tracemalloc

from conftest import SEED, write_result

from repro.datagen import generate_dataset3, generate_dirty_movies
from repro.eval import render_table
from repro.xmlmodel import iter_events, iter_events_file, parse, parse_file, serialize
from repro.xmlmodel.parser import _build_document
from tests.xmlmodel.reference_scanner import reference_events, reference_events_stream

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_MOVIES = int(os.environ.get("SXNM_BENCH_PARSE_MOVIES", "200"))
SPEEDUP_TARGET = 2.0
ASSERT_FLOOR_MOVIES = 100
TIMING_RUNS = 3


def best_seconds(run) -> float:
    best = float("inf")
    for _ in range(TIMING_RUNS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def oracle_file_events(path: str):
    with open(path, encoding="utf-8") as handle:
        yield from reference_events_stream(handle)


def entry_points(text: str, path: str) -> dict:
    """Per entry point: (tokenizer run, oracle run)."""
    return {
        "parse(str)": (lambda: parse(text),
                       lambda: _build_document(reference_events(text))),
        "parse_file": (lambda: parse_file(path),
                       lambda: _build_document(oracle_file_events(path))),
        "iter_events_file": (
            lambda: sum(1 for _ in iter_events_file(path)),
            lambda: sum(1 for _ in oracle_file_events(path))),
    }


def test_parse_perf_record(tmp_path):
    assert not tracemalloc.is_tracing()
    corpora = {
        "movies": serialize(generate_dirty_movies(
            BENCH_MOVIES, seed=SEED, profile="effectiveness")),
        "freedb": serialize(generate_dataset3(
            5 * BENCH_MOVIES, seed=SEED, duplicate_fraction=0.2)),
    }
    scenarios = []
    for corpus, text in corpora.items():
        path = str(tmp_path / f"{corpus}.xml")
        pathlib.Path(path).write_text(text, encoding="utf-8")
        megabytes = os.path.getsize(path) / 1e6

        # The tokenizer's events are the oracle's, from a string and a file.
        expected = list(reference_events(text))
        assert list(iter_events(text)) == expected
        assert list(iter_events_file(path)) == expected
        assert parse_file(path).root.structurally_equal(
            _build_document(iter(expected)).root)

        for entry, (tokenizer, oracle) in entry_points(text, path).items():
            new_seconds = best_seconds(tokenizer)
            oracle_seconds = best_seconds(oracle)
            scenarios.append({
                "corpus": corpus, "entry_point": entry,
                "megabytes": round(megabytes, 4),
                "seconds": round(new_seconds, 4),
                "oracle_seconds": round(oracle_seconds, 4),
                "mb_per_s": round(megabytes / new_seconds, 2),
                "oracle_mb_per_s": round(megabytes / oracle_seconds, 2),
                "speedup": round(oracle_seconds / new_seconds, 2)})

    file_speedups = [s["speedup"] for s in scenarios if s["entry_point"] != "parse(str)"]
    speedup_assertable = BENCH_MOVIES >= ASSERT_FLOOR_MOVIES
    if speedup_assertable:
        assert min(file_speedups) >= SPEEDUP_TARGET, scenarios

    record = {
        "benchmark": "xml_parse",
        "dataset": {"movies": {"generator": "dirty_movies",
                               "profile": "effectiveness",
                               "movies": BENCH_MOVIES, "seed": SEED},
                    "freedb": {"generator": "dataset3",
                               "discs": 5 * BENCH_MOVIES, "seed": SEED,
                               "duplicate_fraction": 0.2}},
        "usable_cores": len(os.sched_getaffinity(0)),
        "seconds_are": f"best of {TIMING_RUNS} untraced runs in one process",
        "speedup_is": "oracle seconds / tokenizer seconds; the oracle is the "
                      "character-at-a-time scanner, both sides share the tree builder",
        "scenarios": scenarios,
        "events_identical_to_oracle": True,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_applies_to": ["parse_file", "iter_events_file"],
        "speedup_asserted": speedup_assertable,
    }
    (REPO_ROOT / "BENCH_parse.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    write_result("bench_parse", render_table(
        ["corpus", "entry point", "MB", "s", "MB/s", "oracle MB/s", "speedup"],
        [[s["corpus"], s["entry_point"], f"{s['megabytes']:.3f}",
          f"{s['seconds']:.4f}", f"{s['mb_per_s']:.2f}",
          f"{s['oracle_mb_per_s']:.2f}", f"{s['speedup']:.2f}x"]
         for s in scenarios],
        title=f"XML parse: regex tokenizer vs character-at-a-time oracle, "
              f"{BENCH_MOVIES} movies / {5 * BENCH_MOVIES} discs"))
