"""Answer matching and the metric suite: accuracy, error correction and
induction rates, threshold sweeps, surprisal, and the scaling regression.

All functions here are pure post-processing over immutable episode logs
(sequences of dicts in the episode JSONL schema), or, for ``replay``, over
their outcome columns; nothing issues model calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_ARTICLES = ("a", "an", "the")
_TERMINAL_PUNCT = ".,!?"
# The soft consensus score at which vqa_consensus scoring counts a match.
CONSENSUS_THRESHOLD = 0.5


def normalize_answer(raw: str) -> str:
    """Lowercase, trim, strip terminal punctuation, collapse whitespace,
    and drop leading articles."""
    text = raw.lower().strip()
    text = text.rstrip(_TERMINAL_PUNCT)
    tokens = text.split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    return " ".join(tokens)


def vqa_consensus_score(predicted: str, answers: Sequence[str]) -> float:
    """Soft consensus score min(matching annotators / 3, 1)."""
    pred = normalize_answer(predicted)
    matches = sum(1 for ans in answers if normalize_answer(ans) == pred)
    return min(matches / 3.0, 1.0)


def is_match(predicted: str, answers: Sequence[str], scoring: str = "exact") -> bool:
    """True when the prediction counts as correct against the ground truth.

    Default is normalized exact match against any answer. In
    ``vqa_consensus`` mode, logs with >= 3 annotator answers are scored
    with the soft consensus and thresholded at CONSENSUS_THRESHOLD; smaller
    answer lists fall back to exact match.
    """
    if not answers:
        raise ValueError("answers must be non-empty")
    if scoring == "vqa_consensus" and len(answers) >= 3:
        return vqa_consensus_score(predicted, answers) >= CONSENSUS_THRESHOLD
    pred = normalize_answer(predicted)
    return any(pred == normalize_answer(ans) for ans in answers)


def _valid(episodes: Sequence[dict]) -> List[dict]:
    return [ep for ep in episodes if not ep.get("failed")]


def _decomposed(episodes: Sequence[dict]) -> List[dict]:
    return [ep for ep in _valid(episodes) if ep["gate"] == "second_guessed"]


def accuracy(episodes: Sequence[dict], phase: str) -> float:
    if phase not in ("before", "after"):
        raise ValueError(f"unknown phase {phase!r}")
    valid = _valid(episodes)
    if not valid:
        raise ValueError("no episodes to score")
    key = f"correct_{phase}"
    return sum(1 for ep in valid if ep[key]) / len(valid)


def error_correction_rate(episodes: Sequence[dict]) -> Optional[float]:
    """Fraction of initially wrong, decomposed answers flipped to correct.

    Returns None (undefined) when no decomposed episode was initially wrong.
    """
    denom = [ep for ep in _decomposed(episodes) if not ep["correct_before"]]
    if not denom:
        return None
    return sum(1 for ep in denom if ep["correct_after"]) / len(denom)


def error_induction_rate(episodes: Sequence[dict]) -> Optional[float]:
    """Fraction of initially correct, decomposed answers flipped to wrong."""
    denom = [ep for ep in _decomposed(episodes) if ep["correct_before"]]
    if not denom:
        return None
    return sum(1 for ep in denom if not ep["correct_after"]) / len(denom)


def surprisal(tau: float) -> float:
    """Surprisal of a confidence threshold, log2(1/tau)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    return math.log2(1.0 / tau)


def _nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """Nearest-rank quantile of sorted confidences; 0.0 at percentile 0."""
    if not (0.0 <= percentile <= 100.0):
        raise ValueError("percentile must be in [0, 100]")
    if percentile == 0:
        return 0.0
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def percentile_to_tau(confidences: Sequence[float], percentile: float) -> float:
    """Nearest-rank empirical quantile of the confidence distribution.

    Percentile 0 returns the sentinel 0.0 (strictly below every confidence,
    so nothing is gated); percentile 100 returns the maximum (everything
    satisfies confidence <= tau).
    """
    if not confidences:
        raise ValueError("confidences must be non-empty")
    return _nearest_rank(sorted(confidences), percentile)


@dataclass
class SweepPoint:
    percentile: float
    tau: float
    surprisal: float  # inf at the percentile-0 sentinel
    eta: float
    accuracy: float


def replay(
    confidence: np.ndarray,
    correct_before: np.ndarray,
    correct_after: np.ndarray,
    taus: Sequence[float],
    percentiles: Optional[Sequence[float]] = None,
) -> List[SweepPoint]:
    """Replay the confidence gate at each tau in [0, 1] over one outcome per
    answer, with zero model calls.

    An answer is second-guessed iff its confidence <= tau and then scores
    ``correct_after``, else ``correct_before``; eta is the gated share. A
    point's percentile is the given one, or 100 * eta without percentiles.
    """
    n = confidence.size
    points = []
    for i, tau in enumerate(taus):
        gated = confidence <= tau
        correct = np.where(gated, correct_after, correct_before)
        eta = int(np.count_nonzero(gated)) / n
        points.append(
            SweepPoint(
                percentile=eta * 100.0 if percentiles is None else percentiles[i],
                tau=tau,
                surprisal=surprisal(tau) if tau > 0 else math.inf,
                eta=eta,
                accuracy=int(np.count_nonzero(correct)) / n,
            )
        )
    return points


def sweep(episodes: Sequence[dict], percentiles: Sequence[float]) -> List[SweepPoint]:
    """Offline threshold sweep over a decompose-all episode log.

    Every episode must carry the initial confidence, initial correctness,
    and post-decomposition correctness; each percentile resolves to its
    nearest-rank tau, and the gate is replayed there.
    """
    valid = _valid(episodes)
    if not valid:
        raise ValueError("no episodes to sweep")
    confidence = np.array([ep["initial"]["confidence"] for ep in valid], dtype=float)
    before = np.array([ep["correct_before"] for ep in valid], dtype=bool)
    after = np.array([ep["correct_after"] for ep in valid], dtype=bool)
    ordered = np.sort(confidence)
    taus = [_nearest_rank(ordered, p) for p in percentiles]
    return replay(confidence, before, after, taus, percentiles)


def linear_fit(points: Sequence[Tuple[float, float]]) -> dict:
    """Ordinary least squares y = slope*x + intercept with R^2.

    Constant y yields slope 0 and R^2 = 0 (no variance explained).
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("x values are degenerate")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        r_squared = 0.0
    else:
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in points)
        r_squared = 1.0 - ss_res / ss_tot
    return {"slope": slope, "intercept": intercept, "r_squared": r_squared}


@dataclass
class MetricsReport:
    n: int
    accuracy_before: float
    accuracy_after: float
    net_gain: float  # percentage points
    e_cr: Optional[float]
    e_cr_denominator: int
    e_ic: Optional[float]
    e_ic_denominator: int
    eta: float
    tau: Optional[float] = None
    surprisal: Optional[float] = None
    failures: int = 0
    per_qtype: Dict[str, dict] = field(default_factory=dict)


def compute_report(
    episodes: Sequence[dict],
    tau: Optional[float] = None,
    qtype_map: Optional[Dict[str, str]] = None,
) -> MetricsReport:
    """Aggregate one episode log into a MetricsReport.

    Failed episodes are excluded from every denominator and reported as a
    count. ``qtype_map`` (question id -> qtype) enables the per-qtype
    breakdown when the originating dataset is available.
    """
    valid = _valid(episodes)
    if not valid:
        raise ValueError("no scorable episodes")
    decomposed = _decomposed(episodes)
    acc_before = accuracy(episodes, "before")
    acc_after = accuracy(episodes, "after")
    report = MetricsReport(
        n=len(valid),
        accuracy_before=acc_before,
        accuracy_after=acc_after,
        net_gain=(acc_after - acc_before) * 100.0,
        e_cr=error_correction_rate(episodes),
        e_cr_denominator=sum(1 for ep in decomposed if not ep["correct_before"]),
        e_ic=error_induction_rate(episodes),
        e_ic_denominator=sum(1 for ep in decomposed if ep["correct_before"]),
        eta=len(decomposed) / len(valid),
        tau=tau,
        surprisal=surprisal(tau) if tau is not None and tau > 0 else None,
        failures=len(episodes) - len(valid),
    )
    if qtype_map is not None:
        groups: Dict[str, List[dict]] = {}
        for ep in valid:
            groups.setdefault(qtype_map.get(ep["id"], "other"), []).append(ep)
        for qtype in ("overall", "boolean", "number", "other"):
            subset = valid if qtype == "overall" else groups.get(qtype, [])
            if not subset:
                continue
            report.per_qtype[qtype] = {
                "n": len(subset),
                "accuracy_before": accuracy(subset, "before"),
                "accuracy_after": accuracy(subset, "after"),
            }
    return report


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    """Emit the shared SweepPoint CSV schema for external plotting."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["percentile", "tau", "surprisal", "eta", "accuracy"])
        for p in points:
            writer.writerow(
                [
                    repr(p.percentile),
                    repr(p.tau),
                    repr(p.surprisal),
                    repr(p.eta),
                    repr(p.accuracy),
                ]
            )
