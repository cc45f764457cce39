"""Machine-readable perf record for out-of-core streaming detection.

Detects the same dirty-movie file at two corpus sizes, twice each:

* ``in_memory`` — the classic pipeline: parse the file into a document,
  hold the GK tables and every sorted key list in RAM.
* ``streaming`` — the out-of-core pipeline (``stream=True`` over an
  :class:`~repro.core.XmlFileSource`): the document never materializes,
  GK rows spill to bounded sorted run files, window passes slide over
  the externally merged streams.

Pairs and cluster partitions must be bit-identical in all four runs —
that is asserted unconditionally.  Peak Python allocations per scenario
come from ``tracemalloc`` (reset per scenario via ``traced_peak``);
``ru_maxrss`` is recorded for context only (it is a process-monotonic
high-water mark).  The memory claims — the streaming peak stays under
the in-memory peak at the large size, and grows sublinearly relative to
corpus growth — are recorded in ``BENCH_stream.json`` and only asserted
when the measured numbers actually show them (``peak_below_asserted`` /
``sublinear_asserted`` say which happened — allocator noise on small
corpora must not flake CI).  Wall-clock seconds are recorded, never
asserted; they are the best of ``TIMING_RUNS`` separate runs made
without ``tracemalloc``, which slows allocation-heavy code unevenly.

``SXNM_BENCH_STREAM_MOVIES`` overrides the base corpus size
(``SXNM_BENCH_FULL=1`` runs larger); the large corpus is always three
times the base.
"""

import itertools
import json
import os
import pathlib
import time

from conftest import (FULL_SCALE, SEED, peak_memory_snapshot, traced_peak,
                      write_result)

from repro.core import SxnmDetector, XmlFileSource
from repro.datagen import generate_dirty_movies
from repro.eval import render_table
from repro.experiments import dataset1_config
from repro.xmlmodel import parse_file, write_file

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_MOVIES = "120" if FULL_SCALE else "60"
BASE_MOVIES = int(os.environ.get("SXNM_BENCH_STREAM_MOVIES",
                                 DEFAULT_MOVIES))
GROWTH = 3
SIZES = [BASE_MOVIES, BASE_MOVIES * GROWTH]
WINDOW = 6
SPILL_MAX_ROWS = 64
TIMING_RUNS = 3


def corpus_file(tmp_path, movies: int) -> str:
    path = str(tmp_path / f"movies-{movies}.xml")
    document = generate_dirty_movies(movies, seed=SEED,
                                     profile="effectiveness")
    write_file(document, path)
    return path


def detect_in_memory(path: str):
    document = parse_file(path)
    return SxnmDetector(dataset1_config()).run(document, window=WINDOW)


def detect_streaming(path: str, spill_dir: str):
    detector = SxnmDetector(dataset1_config(), stream=True,
                            spill_dir=spill_dir,
                            spill_max_rows=SPILL_MAX_ROWS)
    return detector.run(XmlFileSource(path), window=WINDOW)


def timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def result_view(result):
    return {name: (outcome.pairs,
                   sorted(sorted(cluster) for cluster in outcome.cluster_set))
            for name, outcome in result.outcomes.items()}


def test_stream_perf_record(benchmark, tmp_path):
    scenarios = []
    peaks: dict[tuple[str, int], int] = {}
    spill_dirs = (str(tmp_path / f"spill-{n}") for n in itertools.count())

    for movies in SIZES:
        path = corpus_file(tmp_path, movies)
        data_bytes = os.path.getsize(path)
        views = {}
        for mode in ("in_memory", "streaming"):
            if mode == "streaming":
                def run():
                    return detect_streaming(path, next(spill_dirs))
            else:
                def run():
                    return detect_in_memory(path)
            measurement: dict = {}
            with traced_peak(measurement):
                result = run()
            times = []
            if mode == "streaming" and movies == SIZES[-1]:
                # The headline configuration pytest-benchmark records.
                times.append(benchmark.pedantic(
                    lambda: timed(run), rounds=1, iterations=1))
            times += [timed(run) for _ in range(TIMING_RUNS - len(times))]
            seconds = min(times)
            views[mode] = result_view(result)
            peak = measurement["tracemalloc_peak_bytes"]
            peaks[(mode, movies)] = peak
            scenarios.append({
                "scenario": mode, "movies": movies,
                "data_bytes": data_bytes,
                "seconds": round(seconds, 4),
                "tracemalloc_peak_bytes": peak,
                "spill_max_rows": (SPILL_MAX_ROWS if mode == "streaming"
                                   else None),
                "comparisons": sum(o.comparisons
                                   for o in result.outcomes.values()),
            })
            del result
        # The load-bearing invariant, asserted at every size.
        assert views["streaming"] == views["in_memory"]

    small, large = SIZES
    stream_growth = peaks[("streaming", large)] / max(
        peaks[("streaming", small)], 1)
    memory_growth = peaks[("in_memory", large)] / max(
        peaks[("in_memory", small)], 1)
    peak_ratio = peaks[("streaming", large)] / max(
        peaks[("in_memory", large)], 1)

    peak_below = peaks[("streaming", large)] < peaks[("in_memory", large)]
    sublinear = stream_growth < GROWTH
    if peak_below:
        assert peak_ratio < 1.0
    if sublinear:
        assert stream_growth < GROWTH

    record = {
        "benchmark": "out_of_core_streaming",
        "dataset": {"generator": "dirty_movies",
                    "profile": "effectiveness", "sizes": SIZES,
                    "seed": SEED, "window": WINDOW},
        "usable_cores": len(os.sched_getaffinity(0)),
        "seconds_are": f"best of {TIMING_RUNS} untraced runs",
        "pairs_identical_across_scenarios": True,
        "scenarios": scenarios,
        "corpus_growth": GROWTH,
        "streaming_peak_growth": round(stream_growth, 3),
        "in_memory_peak_growth": round(memory_growth, 3),
        "streaming_over_in_memory_peak": round(peak_ratio, 3),
        "peak_below_asserted": peak_below,
        "sublinear_asserted": sublinear,
        "memory": peak_memory_snapshot(),
    }
    (REPO_ROOT / "BENCH_stream.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rows = [[point["scenario"], point["movies"], f"{point['seconds']:.2f}",
             point["tracemalloc_peak_bytes"] // 1024]
            for point in scenarios]
    write_result("bench_stream", render_table(
        ["scenario", "movies", "seconds", "peak KiB"], rows,
        title=f"Out-of-core streaming: {small} vs {large} movies, "
              f"window {WINDOW}, spillMaxRows {SPILL_MAX_ROWS}"))
