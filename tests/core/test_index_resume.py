"""Interrupted-and-resumed detection is bit-identical to uninterrupted.

The headline claim of the DetectionIndex: kill a detection run at any
candidate boundary, reopen the index with ``resume=True``, and the
combined run returns exactly the pairs, clusters, comparison counts,
and per-candidate stats of the run that was never interrupted — while
recomputing only the candidates that had not been committed.  A golden
two-candidate scenario pins the mechanics; a hypothesis battery drives
corpus shape, window, and thresholds through the same kill/resume
cycle.  Resume refuses (``DetectionError``) when the index was
recorded under a different config, corpus, or run parameters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SxnmDetector
from repro.core.observer import CounterObserver, EngineObserver
from repro.datagen import generate_dataset2, generate_dirty_movies
from repro.errors import DetectionError
from repro.experiments import dataset1_config, dataset2_config
from repro.xmlmodel import serialize
from tests.conftest import budget


class KillAfter(EngineObserver):
    """Simulates a crash: raises once ``limit`` candidates completed."""

    def __init__(self, limit: int):
        self.limit = limit
        self.finished = 0

    def candidate_finished(self, candidate, outcome):
        self.finished += 1
        if self.finished >= self.limit:
            raise KeyboardInterrupt("simulated kill")


def outcome_view(result):
    return {name: (outcome.pairs, outcome.comparisons,
                   [list(cluster) for cluster in outcome.cluster_set],
                   None if outcome.compare_stats is None
                   else outcome.compare_stats.as_dict())
            for name, outcome in result.outcomes.items()}


class TestKillAndResume:
    def test_resume_after_kill_is_bit_identical(self, tmp_path):
        document = generate_dataset2(disc_count=40, seed=11)
        text = serialize(document)
        index_dir = str(tmp_path / "index")

        baseline = SxnmDetector(dataset2_config(window=5)).run(text)

        # dataset2 detects bottom-up: title first, then disc.  Kill the
        # run right after the first candidate commits.
        killer = KillAfter(1)
        with pytest.raises(KeyboardInterrupt):
            SxnmDetector(dataset2_config(window=5), index_dir=index_dir,
                         observers=[killer]).run(text)

        counter = CounterObserver()
        resumed = SxnmDetector(dataset2_config(window=5),
                               index_dir=index_dir,
                               observers=[counter]).run(text, resume=True)
        assert outcome_view(resumed) == outcome_view(baseline)
        # One candidate was restored, not recomputed.
        assert counter.counts.get("index_candidates_resumable") == 1
        restored = {name for name, outcome in baseline.outcomes.items()}
        assert counter.counts.get("candidate_started") == len(restored)

    def test_resume_of_fully_committed_run_recomputes_nothing(
            self, tmp_path):
        text = serialize(generate_dataset2(disc_count=30, seed=7))
        index_dir = str(tmp_path / "index")
        baseline = SxnmDetector(dataset2_config(window=5),
                                index_dir=index_dir).run(text)

        counter = CounterObserver()
        resumed = SxnmDetector(dataset2_config(window=5),
                               index_dir=index_dir,
                               observers=[counter]).run(text, resume=True)
        assert outcome_view(resumed) == outcome_view(baseline)
        assert counter.counts.get("pair_compared", 0) == 0
        assert counter.counts.get("index_candidates_resumable") \
            == len(baseline.outcomes)

    def test_fresh_run_over_same_index_restarts(self, tmp_path):
        # Without --resume the index is re-stamped and every candidate
        # recomputes; the directory keeps serving future resumes.
        text = serialize(generate_dataset2(disc_count=20, seed=5))
        index_dir = str(tmp_path / "index")
        first = SxnmDetector(dataset2_config(window=5),
                             index_dir=index_dir).run(text)
        counter = CounterObserver()
        second = SxnmDetector(dataset2_config(window=5),
                              index_dir=index_dir,
                              observers=[counter]).run(text)
        assert outcome_view(second) == outcome_view(first)
        assert counter.counts.get("pair_compared", 0) > 0
        assert counter.counts.get("index_candidates_resumable", 0) == 0


class TestResumeRefusals:
    def seeded(self, tmp_path):
        text = serialize(generate_dirty_movies(20, seed=4,
                                               profile="effectiveness"))
        index_dir = str(tmp_path / "index")
        SxnmDetector(dataset1_config(window=6),
                     index_dir=index_dir).run(text)
        return text, index_dir

    def test_refuses_without_an_index(self, tmp_path):
        text = serialize(generate_dirty_movies(10, seed=4))
        with pytest.raises(DetectionError, match="no detection index"):
            SxnmDetector(dataset1_config()).run(text, resume=True)

    def test_refuses_on_config_fingerprint_mismatch(self, tmp_path):
        text, index_dir = self.seeded(tmp_path)
        drifted = dataset1_config(window=6)
        drifted.od_threshold = 0.99
        with pytest.raises(DetectionError,
                           match="config fingerprint mismatch"):
            SxnmDetector(drifted, index_dir=index_dir).run(text,
                                                           resume=True)

    def test_refuses_on_corpus_mismatch(self, tmp_path):
        text, index_dir = self.seeded(tmp_path)
        other = serialize(generate_dirty_movies(21, seed=5))
        with pytest.raises(DetectionError,
                           match="corpus checksum mismatch"):
            SxnmDetector(dataset1_config(window=6),
                         index_dir=index_dir).run(other, resume=True)

    def test_refuses_on_run_parameter_mismatch(self, tmp_path):
        text, index_dir = self.seeded(tmp_path)
        with pytest.raises(DetectionError,
                           match="run parameter mismatch"):
            SxnmDetector(dataset1_config(window=6),
                         index_dir=index_dir).run(text, window=9,
                                                  resume=True)

    def test_refuses_on_empty_index(self, tmp_path):
        text = serialize(generate_dirty_movies(10, seed=4))
        with pytest.raises(DetectionError, match="no committed run"):
            SxnmDetector(dataset1_config(),
                         index_dir=str(tmp_path / "empty")).run(
                             text, resume=True)


@settings(max_examples=budget(10), deadline=None)
@given(count=st.integers(min_value=8, max_value=30),
       seed=st.integers(min_value=0, max_value=2**16),
       profile=st.sampled_from(["effectiveness", "few", "many"]),
       window=st.integers(min_value=2, max_value=9),
       od_threshold=st.floats(min_value=0.3, max_value=0.95))
def test_killed_plus_resumed_equals_uninterrupted(
        tmp_path_factory, count, seed, profile, window, od_threshold):
    document = generate_dirty_movies(count, seed=seed, profile=profile)
    text = serialize(document)
    index_dir = str(tmp_path_factory.mktemp("index"))

    config = dataset1_config(window=window, od_threshold=od_threshold)
    baseline = SxnmDetector(config).run(text)

    killer = KillAfter(1)
    interrupted_config = dataset1_config(window=window,
                                         od_threshold=od_threshold)
    try:
        SxnmDetector(interrupted_config, index_dir=index_dir,
                     observers=[killer]).run(text)
    except KeyboardInterrupt:
        pass  # dataset1 has one candidate: the kill may land at the end

    resume_config = dataset1_config(window=window,
                                    od_threshold=od_threshold)
    counter = CounterObserver()
    resumed = SxnmDetector(resume_config, index_dir=index_dir,
                           observers=[counter]).run(text, resume=True)
    assert outcome_view(resumed) == outcome_view(baseline)
    assert counter.warnings == []
