"""Monte-Carlo and closed-form model of the second-guessing tradeoff.

Each synthetic trial is one question: correctness is assigned from the base
accuracy, a confidence is drawn from the matching calibration distribution,
Beta(8, 2) if correct and Beta(2, 8) if wrong, and a decompose-all flip
outcome is drawn once (correction with the configured rate if wrong,
induction if correct). Gating at any threshold is then pure post-processing
over the same trials: ``simulate`` replays the gate through
``evaluation.replay``, the one replay behind the offline sweep. The
independent oracles for that replay (a brute-force recount over episode
dicts and a per-threshold reference over the trials) live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import evaluation

# The Beta shape pairs of the confidence of a correct trial, concentrated
# high, and of a wrong one, concentrated low.
CONF_CORRECT = (8.0, 2.0)
CONF_INCORRECT = (2.0, 8.0)


@dataclass(frozen=True)
class SimConfig:
    base_accuracy: float
    e_cr: float
    e_ic: float
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base_accuracy", "e_cr", "e_ic"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class SimTrials:
    """Frozen per-trial draws: confidence, initial correctness, and the
    decompose-all (post-flip) correctness."""

    confidence: np.ndarray
    correct_before: np.ndarray
    correct_after: np.ndarray


@dataclass
class SimCurve:
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
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trials
    n_correct = int(round(cfg.base_accuracy * n))
    correct_before = np.zeros(n, dtype=bool)
    correct_before[:n_correct] = True

    # The stream is that of two whole Beta draws of size n and one of n
    # uniforms, whatever the base accuracy; the Generator draws the same
    # values block by block, so only the confidence column is drawn whole.
    confidence = rng.beta(*CONF_CORRECT, size=n)
    for start in range(0, n, evaluation.BLOCK):
        block = rng.beta(*CONF_INCORRECT, size=min(evaluation.BLOCK, n - start))
        first = max(n_correct, start)
        confidence[first : start + block.size] = block[first - start :]
    # Beta draws live in (0, 1); nudge exact zeros into the open interval.
    np.maximum(confidence, np.finfo(float).tiny, out=confidence)

    # A correct trial stays correct unless induced; a wrong one is corrected.
    correct_after = np.empty(n, dtype=bool)
    for start in range(0, n, evaluation.BLOCK):
        flip = rng.random(min(evaluation.BLOCK, n - start))
        block = slice(start, start + flip.size)
        correct_after[block] = np.where(correct_before[block], flip >= cfg.e_ic, flip < cfg.e_cr)
    return SimTrials(confidence, correct_before, correct_after)


def simulate(cfg: SimConfig, taus: Sequence[float]) -> SimCurve:
    """Evaluate the accuracy-vs-threshold curve on one synthetic population.

    Ties at the maximum accuracy break toward the smaller tau (fewer
    second-guesses).
    """
    trials = generate_trials(cfg)
    points = evaluation.replay(
        trials.confidence, trials.correct_before, trials.correct_after, taus
    )
    best = max(points, key=lambda p: (p.accuracy, -p.tau))
    return SimCurve(
        points=points,
        # Every confidence is at most 1, so tau = 1 gates every trial.
        decompose_all_accuracy=np.count_nonzero(trials.correct_after) / cfg.trials,
        optimal_tau=best.tau,
        optimal_accuracy=best.accuracy,
    )
