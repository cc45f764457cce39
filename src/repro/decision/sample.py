"""Labelled score samples from generator ground truth.

``repro.datagen`` stamps every clean object with an ``oid`` attribute
that its dirty duplicates inherit; :func:`collect_labelled_scores` runs
a detection pass purely to harvest the scores the similarity measure
assigned to compared pairs and labels each pair with the oid ground
truth (:func:`repro.eval.gold_pairs`).  :func:`calibrate_document`
feeds those samples to :func:`repro.decision.calibrate.calibrate_three_way`
and returns one fitted :class:`ThreeWayCalibration` per candidate.

Score capture rides the engine's per-pair observer events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DetectionError
from .calibrate import ThreeWayCalibration, calibrate_three_way

PairKey = tuple[int, int]


@dataclass
class LabelledSample:
    """Scores and ground-truth labels for one candidate's compared pairs."""

    candidate: str
    scores: list[float] = field(default_factory=list)
    labels: list[bool] = field(default_factory=list)
    pairs: list[PairKey] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def positives(self) -> int:
        return sum(1 for label in self.labels if label)


class ScoreCollector:
    """Engine observer capturing each compared pair's decision score.

    Deduplicates by eid pair (multi-pass windows may compare a pair
    more than once; the score is deterministic), keeping the decision
    layer's input: the OD score under "gates", the combined score under
    "combined".
    """

    def __init__(self, decision: str = "gates"):
        self.decision = decision
        self.scores: dict[str, dict[PairKey, float]] = {}

    def pair_compared(self, candidate: str, left_eid: int, right_eid: int,
                      verdict) -> None:
        key = (min(left_eid, right_eid), max(left_eid, right_eid))
        score = (verdict.combined if self.decision == "combined"
                 else verdict.od)
        self.scores.setdefault(candidate, {}).setdefault(key, score)

    def __getattr__(self, name):
        # Every other engine event is a no-op (duck-typed observer).
        if name.startswith("_"):
            raise AttributeError(name)
        return lambda *args, **kwargs: None


def collect_labelled_scores(document, config, *, decision: str = "gates",
                            window: int | None = None,
                            oid_attribute: str = "oid",
                            ) -> dict[str, LabelledSample]:
    """Harvest labelled pair scores from one detection pass.

    ``document`` is XML text or a parsed document carrying generator
    oids.  Returns one :class:`LabelledSample` per candidate, in
    candidate order, containing every pair the window actually compared.
    """
    from ..core import SxnmDetector
    from ..eval import gold_pairs
    from ..xmlmodel import parse

    parsed = parse(document) if isinstance(document, str) else document
    collector = ScoreCollector(decision=decision)
    SxnmDetector(config, decision=decision,
                 observers=[collector]).run(parsed, window=window)
    samples: dict[str, LabelledSample] = {}
    for candidate in config.candidates:
        scored = collector.scores.get(candidate.name, {})
        gold = gold_pairs(parsed, candidate.xpath, oid_attribute)
        sample = LabelledSample(candidate.name)
        for key in sorted(scored):
            sample.pairs.append(key)
            sample.scores.append(scored[key])
            sample.labels.append(key in gold)
        samples[candidate.name] = sample
    return samples


def calibrate_document(document, config, *, fpr: float = 0.05,
                       coverage: float = 0.9, confidence: float = 0.95,
                       seed: int = 0, decision: str = "gates",
                       window: int | None = None,
                       oid_attribute: str = "oid",
                       ) -> dict[str, ThreeWayCalibration]:
    """Fit one three-way calibration per candidate from a labelled corpus.

    Raises an itemized :class:`~repro.errors.DetectionError` naming
    every candidate whose sample cannot support calibration — a corpus
    without oids (or without any true duplicates among the compared
    pairs) never yields a silent threshold.
    """
    samples = collect_labelled_scores(document, config, decision=decision,
                                      window=window,
                                      oid_attribute=oid_attribute)
    calibrations: dict[str, ThreeWayCalibration] = {}
    problems: list[str] = []
    for name, sample in samples.items():
        try:
            calibrations[name] = calibrate_three_way(
                sample.scores, sample.labels, fpr=fpr, coverage=coverage,
                confidence=confidence, seed=seed)
        except DetectionError as error:
            problems.append(f"candidate {name!r}: {error}")
    if problems:
        raise DetectionError(
            "cannot calibrate from this corpus:\n  - "
            + "\n  - ".join(problems))
    return calibrations


__all__ = ["LabelledSample", "ScoreCollector", "calibrate_document",
           "collect_labelled_scores"]
