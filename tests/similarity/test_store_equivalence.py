"""Detection-level cache equivalence, property-tested.

The headline claim of the persistent φ cache: for *any* corpus and any
threshold configuration, running detection without a cache, with a cold
cache, and again warm against the populated directory produces
bit-identical duplicate pairs, comparison counts, and cluster
partitions.  Hypothesis drives corpus size, seed, duplicate profile,
thresholds, and window through the full engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SxnmDetector
from repro.core.observer import CounterObserver
from repro.datagen import generate_dirty_movies
from repro.experiments import dataset1_config
from repro.similarity import ComparisonStats
from tests.conftest import budget


def outcome_view(result):
    return {name: (outcome.pairs, outcome.comparisons,
                   {frozenset(cluster) for cluster in outcome.cluster_set})
            for name, outcome in result.outcomes.items()}


def run(document, *, window, od_threshold, cache_dir=None):
    config = dataset1_config(window=window, od_threshold=od_threshold)
    counter = CounterObserver()
    detector = SxnmDetector(config, phi_cache_dir=cache_dir,
                            observers=[counter])
    return outcome_view(detector.run(document)), counter


@settings(max_examples=budget(12), deadline=None)
@given(count=st.integers(min_value=8, max_value=40),
       seed=st.integers(min_value=0, max_value=2**16),
       profile=st.sampled_from(["effectiveness", "few", "many"]),
       window=st.integers(min_value=2, max_value=9),
       od_threshold=st.floats(min_value=0.3, max_value=0.95))
def test_cached_uncached_and_warm_runs_are_bit_identical(
        tmp_path_factory, count, seed, profile, window, od_threshold):
    document = generate_dirty_movies(count, seed=seed, profile=profile)
    cache_dir = str(tmp_path_factory.mktemp("phicache"))

    baseline, _ = run(document, window=window, od_threshold=od_threshold)
    cold, cold_counter = run(document, window=window,
                             od_threshold=od_threshold,
                             cache_dir=cache_dir)
    warm, warm_counter = run(document, window=window,
                             od_threshold=od_threshold,
                             cache_dir=cache_dir)

    assert cold == baseline
    assert warm == baseline
    assert cold_counter.warnings == []
    assert warm_counter.warnings == []
    # The warm run consumed what the cold run flushed.
    flushed = cold_counter.counts.get("cache_entries_flushed", 0)
    assert warm_counter.counts.get("cache_entries_loaded", 0) == flushed
    assert warm_counter.counts.get("cache_entries_flushed", 0) == 0


@settings(max_examples=budget(8), deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       threshold_pair=st.tuples(
           st.floats(min_value=0.3, max_value=0.95),
           st.floats(min_value=0.3, max_value=0.95)))
def test_cache_is_sound_across_threshold_changes(tmp_path_factory, seed,
                                                 threshold_pair):
    # Exact scores are threshold-free: a cache populated under one
    # threshold must serve a detection under another without changing
    # its results.  (A store of *decisions* would fail this.)
    document = generate_dirty_movies(24, seed=seed, profile="effectiveness")
    cache_dir = str(tmp_path_factory.mktemp("phicache"))
    first, second = threshold_pair

    run(document, window=5, od_threshold=first, cache_dir=cache_dir)
    baseline, _ = run(document, window=5, od_threshold=second)
    warm, warm_counter = run(document, window=5, od_threshold=second,
                             cache_dir=cache_dir)
    assert warm == baseline
    assert warm_counter.warnings == []


def test_warm_persistent_cache_equals_cacheless(tmp_path):
    """Cold and warm runs against a φ directory equal a cacheless run,
    and the warm run serves its φs from disk without spilling again."""
    movies = generate_dirty_movies(60, seed=11, profile="effectiveness")
    cache_dir = str(tmp_path / "phi-cache")

    def detect(directory=None):
        return SxnmDetector(dataset1_config(), phi_cache_dir=directory).run(
            movies, window=6)

    baseline, cold, warm = detect(), detect(cache_dir), detect(cache_dir)
    assert outcome_view(cold) == outcome_view(baseline)
    assert outcome_view(warm) == outcome_view(baseline)
    cold_total, warm_total = ComparisonStats(), ComparisonStats()
    for result, total in ((cold, cold_total), (warm, warm_total)):
        for outcome in result.outcomes.values():
            total.merge(outcome.compare_stats)
    assert cold_total.phi_cache_spilled > 0
    assert warm_total.phi_cache_disk_hits > 0
    assert warm_total.phi_cache_spilled == 0
