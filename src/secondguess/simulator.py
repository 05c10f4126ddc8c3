"""Monte-Carlo and closed-form model of the second-guessing tradeoff.

Each synthetic trial is one question: correctness is assigned from the base
accuracy, a confidence is drawn from the matching calibration distribution,
Beta(8, 2) if correct and Beta(2, 8) if wrong, and a decompose-all flip
outcome is drawn once (correction with the configured rate if wrong,
induction if correct). Gating at any threshold is then pure post-processing
over the same trials: ``simulate`` counts the trials of each
(correct_before, correct_after) class that the gate holds at each threshold
with numpy, a block of trials at a time, and turns the counts into points
with ``evaluation.sweep_points``, as the offline sweep does with the counts
it bisects. numpy is imported inside the functions that draw and count, so
that only ``simulate`` loads it. The independent oracles for those counts (a
brute-force recount over episode dicts and a per-threshold reference over
the trials) live in the tests.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from . import evaluation

# The Beta shape pairs of the confidence of a correct trial, concentrated
# high, and of a wrong one, concentrated low.
CONF_CORRECT = (8.0, 2.0)
CONF_INCORRECT = (2.0, 8.0)
# Trials per block of the arrays that ``generate_trials`` draws and
# ``gated_counts`` bins, so that a pass holds one block of temporaries
# rather than n.
BLOCK = 2**14


class _Settings(NamedTuple):
    base_accuracy: float
    e_cr: float
    e_ic: float
    trials: int = 100_000
    seed: int = 0


class SimConfig(_Settings):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SimConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("base_accuracy", "e_cr", "e_ic"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        return self


class SimTrials(NamedTuple):
    """Frozen per-trial draws: confidence, initial correctness, and the
    decompose-all (post-flip) correctness."""

    confidence: np.ndarray
    correct_before: np.ndarray
    correct_after: np.ndarray


class SimCurve(NamedTuple):
    points: List[evaluation.SweepPoint]  # percentile = 100 * eta
    decompose_all_accuracy: float
    optimal_tau: float
    optimal_accuracy: float


def closed_form_decompose_all(cfg: SimConfig) -> float:
    """Expected accuracy when every question is decomposed:
    Acc + (1 - Acc) * E_CR - Acc * E_IC."""
    acc = cfg.base_accuracy
    return acc + (1.0 - acc) * cfg.e_cr - acc * cfg.e_ic


def generate_trials(cfg: SimConfig) -> SimTrials:
    """Draw the synthetic population once, deterministically from the seed.

    Correctness is stratified (exactly round(Acc * trials) correct trials)
    rather than Bernoulli, so the closed-gate endpoint reproduces the base
    accuracy with zero variance.
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    n = cfg.trials
    n_correct = int(round(cfg.base_accuracy * n))
    correct_before = np.zeros(n, dtype=bool)
    correct_before[:n_correct] = True

    # The stream is that of two whole Beta draws of size n and one of n
    # uniforms, whatever the base accuracy; the Generator draws the same
    # values block by block, so only the confidence column is drawn whole.
    confidence = rng.beta(*CONF_CORRECT, size=n)
    for start in range(0, n, BLOCK):
        block = rng.beta(*CONF_INCORRECT, size=min(BLOCK, n - start))
        first = max(n_correct, start)
        confidence[first : start + block.size] = block[first - start :]
    # Beta draws live in (0, 1); nudge exact zeros into the open interval.
    np.maximum(confidence, np.finfo(float).tiny, out=confidence)

    # A correct trial stays correct unless induced; a wrong one is corrected.
    correct_after = np.empty(n, dtype=bool)
    for start in range(0, n, BLOCK):
        flip = rng.random(min(BLOCK, n - start))
        block = slice(start, start + flip.size)
        correct_after[block] = np.where(correct_before[block], flip >= cfg.e_ic, flip < cfg.e_cr)
    return SimTrials(confidence, correct_before, correct_after)


def gated_counts(trials: SimTrials, taus: Sequence[float]) -> List[Tuple[int, ...]]:
    """For each tau, how many trials of each class, in
    ``evaluation.CLASSES`` order, ``evaluation.gated`` holds at tau.

    One pass, BLOCK trials at a time, counts every tau: with the distinct
    taus sorted, a trial's bin is the first tau at or above its confidence
    (``searchsorted(side="left")``), so the trials gated at the j-th tau are
    those of bins 0 to j, ties included; a last bin holds the trials above
    every tau. Bins and classes are counted together, bin * 4 + class, by
    one ``bincount`` per block, and each tau's counts are read from the
    cumulative sums over the bins. A rank form over all n trials at once
    (an argsort and cumulative sums) holds arrays of all n trials, which
    raised offline-eval's peak RSS (CHANGES.md, "Offline evaluation in one
    pass").
    """
    import numpy as np

    # sorted(set()) rather than np.unique, which imports numpy.ma.
    edges = np.array(sorted(set(taus)), dtype=float)
    bins = edges.size + 1
    counts = np.zeros(bins * 4, dtype=np.int64)
    for start in range(0, trials.confidence.size, BLOCK):
        block = slice(start, start + BLOCK)
        where = np.searchsorted(edges, trials.confidence[block], side="left")
        where *= 4
        where += 2 * trials.correct_before[block]
        where += trials.correct_after[block]
        counts += np.bincount(where, minlength=bins * 4)
    cumulative = np.cumsum(counts.reshape(bins, 4), axis=0).tolist()
    return [tuple(cumulative[j]) for j in np.searchsorted(edges, taus).tolist()]


def simulate(cfg: SimConfig, taus: Sequence[float]) -> SimCurve:
    """Evaluate the accuracy-vs-threshold curve on one synthetic population.

    Ties at the maximum accuracy break toward the smaller tau (fewer
    second-guesses).
    """
    trials = generate_trials(cfg)
    # Every confidence is at most 1, so tau = 1 gates every trial: its counts
    # are the sizes of the classes.
    *counts, sizes = gated_counts(trials, [*taus, 1.0])
    points = evaluation.sweep_points(sizes, taus, counts)
    best = max(points, key=lambda p: (p.accuracy, -p.tau))
    return SimCurve(
        points=points,
        decompose_all_accuracy=(sizes[1] + sizes[3]) / cfg.trials,
        optimal_tau=best.tau,
        optimal_accuracy=best.accuracy,
    )
