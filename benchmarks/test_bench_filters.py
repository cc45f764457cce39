"""Machine-readable perf record for the comparison plane's filters.

Runs the Fig. 5 many-duplicates workload through the detector twice —
pair-at-a-time with the pruning filters off and on — asserts both
scenarios return bit-identical pairs, then records the work saved:

* the drop in full edit-distance evaluations of the filter-armed run
  against the unfiltered baseline (the ``REDUCTION_TARGET`` headline
  claim), with each scenario's φ-cache hit rate and filter
  short-circuit rate;
* the bit-parallel edit kernel on exactly this corpus's sorted window
  traffic: every edit-φ value pair the window compares, its distance
  asserted equal to the textbook DP oracle of the test suite, with the
  seconds each took (``kernel``).

Seconds are the best of ``TIMING_RUNS`` runs per scenario, taken
without ``tracemalloc`` (which slows allocation-heavy code unevenly),
and the record states the usable cores of the host that wrote it.

Honesty over optimism: tiny smoke corpora (the CI step runs ~40
movies) have too few duplicate neighbors for the ≥30% claim to be
meaningful, so the reduction is recorded but only *asserted* at or
above ``ASSERT_FLOOR_MOVIES`` — ``reduction_asserted`` in
``BENCH_filters.json`` says which happened.  Pair identity, a strict
drop in full edit evaluations with the filters armed, and kernel
exactness are asserted unconditionally.

``SXNM_BENCH_FILTERS_MOVIES`` overrides the corpus size
(``SXNM_BENCH_FULL=1`` runs the paper scale).
"""

import json
import os
import pathlib
import time

from conftest import FULL_SCALE, SEED, peak_memory_snapshot, write_result

from repro.core import CandidateHierarchy, SxnmDetector, generate_gk
from repro.core.window import window_pairs
from repro.datagen import generate_dirty_movies
from repro.eval import render_table
from repro.experiments import dataset1_config
from repro.similarity import ComparisonStats, levenshtein_distance
from tests.similarity.oracle import dp_levenshtein

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_MOVIES = int(os.environ.get("SXNM_BENCH_FILTERS_MOVIES",
                                  "400" if FULL_SCALE else "200"))
WINDOW = 10
REDUCTION_TARGET = 0.3
ASSERT_FLOOR_MOVIES = 100
TIMING_RUNS = 3


def total_stats(result) -> ComparisonStats:
    total = ComparisonStats()
    for outcome in result.outcomes.values():
        if outcome.compare_stats is not None:
            total.merge(outcome.compare_stats)
    return total


def pair_sets(result):
    return {name: outcome.pairs for name, outcome in result.outcomes.items()}


def detect(document, use_filters: bool):
    return SxnmDetector(dataset1_config(), use_filters=use_filters).run(
        document, window=WINDOW)


def timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def window_edit_pairs(document) -> list[tuple[str, str]]:
    """Every edit-φ OD value pair of this corpus's sorted windows.

    Replays the sorted window workload (anchor repeats, neighbors share
    prefixes) for every edit-φ OD field — the traffic the plain
    detector sends to the edit kernel before any memo or filter.
    """
    config = dataset1_config()
    hierarchy = CandidateHierarchy(config)
    tables = generate_gk(document, config, hierarchy)
    pairs = []
    for node in hierarchy.order:
        spec = node.spec
        table = tables[spec.name]
        positions = [index for index, (_, _, phi)
                     in enumerate(spec.od_items())
                     if phi in ("edit", "levenshtein")]
        if not positions:
            continue
        for key_index in range(table.key_count):
            for other, row in window_pairs(table.sorted_by_key(key_index),
                                           WINDOW):
                for position in positions:
                    left = other.ods[position]
                    right = row.ods[position]
                    if left is not None and right is not None:
                        pairs.append((left, right))
    return pairs


def timed_distances(distance, pairs) -> tuple[list[int], float]:
    start = time.perf_counter()
    values = [distance(left, right) for left, right in pairs]
    return values, time.perf_counter() - start


def test_filters_perf_record(benchmark):
    document = generate_dirty_movies(BENCH_MOVIES, seed=SEED, profile="many")

    plain = detect(document, use_filters=False)
    filtered = detect(document, use_filters=True)
    plain_seconds = min(timed(lambda: detect(document, use_filters=False))
                        for _ in range(TIMING_RUNS))
    filtered_times = [benchmark.pedantic(
        lambda: timed(lambda: detect(document, use_filters=True)),
        rounds=1, iterations=1)]
    filtered_times += [timed(lambda: detect(document, use_filters=True))
                       for _ in range(TIMING_RUNS - 1)]
    filtered_seconds = min(filtered_times)

    # The filters must not change detection results...
    assert pair_sets(filtered) == pair_sets(plain)

    # ...and they cut full edit evaluations at every corpus size, the
    # CI smoke included.
    plain_stats = total_stats(plain)
    filtered_stats = total_stats(filtered)
    assert filtered_stats.edit_full_evals < plain_stats.edit_full_evals

    # The headline claim: filter-armed detection does ≥30% less exact
    # edit work than the unfiltered baseline.
    reduction = 1.0 - (filtered_stats.edit_full_evals
                       / max(plain_stats.edit_full_evals, 1))
    reduction_assertable = BENCH_MOVIES >= ASSERT_FLOOR_MOVIES
    if reduction_assertable:
        assert reduction >= REDUCTION_TARGET, (
            filtered_stats.edit_full_evals, plain_stats.edit_full_evals)

    # The kernel is exact on this corpus's window traffic.
    edit_pairs = window_edit_pairs(document)
    oracle, oracle_seconds = timed_distances(dp_levenshtein, edit_pairs)
    kernel, kernel_seconds = timed_distances(levenshtein_distance,
                                             edit_pairs)
    assert kernel == oracle

    pairs_seen = sum(outcome.comparisons + outcome.filtered_comparisons
                     for outcome in filtered.outcomes.values())
    scenarios = [
        ("pairwise-unfiltered", plain_seconds, plain_stats),
        ("pairwise-filtered", filtered_seconds, filtered_stats),
    ]
    record = {
        "benchmark": "comparison_filters",
        "dataset": {"generator": "dirty_movies", "profile": "many",
                    "movies": BENCH_MOVIES,
                    "elements": document.element_count(),
                    "seed": SEED, "window": WINDOW},
        "usable_cores": len(os.sched_getaffinity(0)),
        "seconds_are": f"best of {TIMING_RUNS} untraced runs",
        "scenarios": [
            {"scenario": name,
             "seconds": round(seconds, 4),
             "pairs_per_second": round(pairs_seen / max(seconds, 1e-9), 1),
             "phi_cache_hit_rate": round(stats.phi_cache_hit_rate, 4),
             "filter_short_circuit_rate": round(
                 stats.filter_short_circuit_rate, 4),
             "stats": stats.as_dict()}
            for name, seconds, stats in scenarios],
        "pairs_identical_across_scenarios": True,
        "edit_full_evals_reduction": round(reduction, 4),
        "reduction_target": REDUCTION_TARGET,
        "reduction_asserted": reduction_assertable,
        "kernel": {"pairs": len(edit_pairs),
                   "distances_equal_oracle": True,
                   "oracle_seconds": round(oracle_seconds, 4),
                   "kernel_seconds": round(kernel_seconds, 4),
                   "speedup": round(oracle_seconds
                                    / max(kernel_seconds, 1e-9), 2)},
    }
    record["memory"] = peak_memory_snapshot()
    (REPO_ROOT / "BENCH_filters.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rows = [
        [name, stats.edit_full_evals, stats.pairs_prefiltered,
         f"{seconds:.2f}"]
        for name, seconds, stats in scenarios]
    write_result("bench_filters", render_table(
        ["scenario", "full edits", "prefiltered", "seconds"], rows,
        title=f"Comparison filters: {BENCH_MOVIES} movies, full edit "
              f"reduction {reduction:.0%}, kernel "
              f"{oracle_seconds / max(kernel_seconds, 1e-9):.1f}x the DP "
              f"oracle on {len(edit_pairs)} window pairs"))
