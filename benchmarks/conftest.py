"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper's evaluation
at a laptop-friendly scale, prints the same series the paper plots, and
asserts the qualitative shape (who wins, what rises, where the optimum
sits).  Rendered tables are also written to ``benchmarks/results/``.

Scales are reduced relative to the paper (e.g. 4,000 instead of 10,000
CDs) so the whole suite completes in minutes; set ``SXNM_BENCH_FULL=1``
to run at full paper scale.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import resource
import sys
import tracemalloc

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Records that check the program against the test suite's oracles import
# them as ``tests.*`` from the repository root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

FULL_SCALE = os.environ.get("SXNM_BENCH_FULL") == "1"

# (reduced, full-paper) scales.
DS1_MOVIES = 500 if FULL_SCALE else 250
DS2_DISCS = 500 if FULL_SCALE else 350
DS3_DISCS = 10_000 if FULL_SCALE else 3_000
SCALABILITY_SIZES = [100, 200, 400, 800] if FULL_SCALE else [50, 100, 200, 400]

SEED = 42


def peak_memory_snapshot() -> dict:
    """Process-level peak-memory counters for a benchmark record.

    ``ru_maxrss`` is the OS high-water mark for the whole process —
    monotonic across scenarios, so it contextualizes a record but must
    never be compared between scenarios of one run.  Per-scenario peaks
    come from :func:`traced_peak` instead.  ``ru_maxrss`` is kilobytes
    on Linux.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    snapshot = {"ru_maxrss_kb": usage.ru_maxrss}
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        snapshot["tracemalloc_current_bytes"] = current
        snapshot["tracemalloc_peak_bytes"] = peak
    return snapshot


@contextlib.contextmanager
def traced_peak(result: dict):
    """Measure one scenario's Python allocation peak into ``result``.

    Resets the tracemalloc peak on entry (starting tracing if needed)
    and records the with-block's high-water mark as
    ``result["tracemalloc_peak_bytes"]`` — the resettable counterpart
    to the monotonic ``ru_maxrss``.  Tracing slows allocation-heavy
    code, but both scenarios of a comparison pay the same tax.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    try:
        yield result
        _, peak = tracemalloc.get_traced_memory()
        result["tracemalloc_peak_bytes"] = peak
    finally:
        if started_here:
            tracemalloc.stop()


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def write_figure(name: str, table_text: str, x_values, series,
                 x_label: str, y_label: str, title: str) -> None:
    """Persist a figure as table + ASCII chart (shape visible at a glance)."""
    from repro.eval import render_ascii_chart
    chart = render_ascii_chart(x_values, series, title=title,
                               x_label=x_label, y_label=y_label)
    write_result(name, table_text + "\n\n" + chart)


@pytest.fixture(scope="session")
def ds1_result():
    """Experiment set 1 sweep on data set 1 (shared by Fig 4a and 4b)."""
    from repro.experiments import run_dataset1
    return run_dataset1(movie_count=DS1_MOVIES, seed=SEED,
                        windows=[2, 4, 6, 8, 10, 14, 20])


@pytest.fixture(scope="session")
def ds2_result():
    """Experiment set 1 sweep on data set 2 (Fig 4c)."""
    from repro.experiments import run_dataset2
    return run_dataset2(disc_count=DS2_DISCS, seed=SEED,
                        windows=[2, 4, 6, 8, 10, 12])


@pytest.fixture(scope="session")
def ds3_result():
    """Experiment set 1 sweep on data set 3 (Fig 4d)."""
    from repro.experiments import run_dataset3
    return run_dataset3(disc_count=DS3_DISCS, seed=SEED,
                        windows=[2, 3, 5, 8, 10])


@pytest.fixture(scope="session")
def scalability_results():
    """Phase timings for clean / few / many (Figs 5a-5d)."""
    from repro.experiments import run_scalability
    return {profile: run_scalability(profile, sizes=SCALABILITY_SIZES,
                                     seed=7)
            for profile in ("clean", "few", "many")}
