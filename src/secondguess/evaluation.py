"""Answer matching and the metric suite: accuracy, error correction and
induction rates, threshold sweeps, surprisal, and the scaling regression.

All functions here are pure post-processing over immutable episode logs;
nothing issues model calls. A log is read as ``EpisodeColumns``, one entry
per record; ``compute_report`` and ``sweep`` mask out its failed records and
count with boolean masks over the rest; ``replay`` gates those columns at
each threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_ARTICLES = ("a", "an", "the")
_TERMINAL_PUNCT = ".,!?"
# The soft consensus score at which vqa_consensus scoring counts a match.
CONSENSUS_THRESHOLD = 0.5
# Entries per block of the arrays that ``replay`` bins and ``simulator``
# draws, so that a pass holds one block of temporaries rather than n.
BLOCK = 2**14


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


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


@dataclass(eq=False)  # numpy columns have no one truth value to compare
class EpisodeColumns:
    """The fields of an episode log that the evaluation reads, one entry per
    record, failed records included: a list of ids, then numpy columns."""

    ids: List[str]
    failed: np.ndarray
    confidence: np.ndarray
    second_guessed: np.ndarray
    correct_before: np.ndarray
    correct_after: np.ndarray


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
    which ``backend.confidence_of`` floors above 0, so nothing is gated);
    percentile 100 returns the maximum (everything satisfies
    confidence <= tau).
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

    One pass, BLOCK answers at a time, counts every tau: with the distinct
    taus sorted, an answer's bin is the first tau at or above its
    confidence, so the answers gated at the j-th tau are those of bins 0 to
    j; a last bin holds the answers above every tau.
    """
    n = confidence.size
    # sorted(set()) rather than np.unique, which imports numpy.ma.
    edges = np.array(sorted(set(taus)), dtype=float)
    bins = edges.size + 1
    gated, before, after = (np.zeros(bins, dtype=np.int64) for _ in range(3))
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        where = np.searchsorted(edges, confidence[block], side="left")
        gated += np.bincount(where, minlength=bins)
        before += np.bincount(where[correct_before[block]], minlength=bins)
        after += np.bincount(where[correct_after[block]], minlength=bins)
    gated, before, after = (np.cumsum(counts).tolist() for counts in (gated, before, after))
    points = []
    for i, (tau, j) in enumerate(zip(taus, np.searchsorted(edges, taus).tolist())):
        eta = gated[j] / n
        points.append(
            SweepPoint(
                percentile=eta * 100.0 if percentiles is None else percentiles[i],
                tau=tau,
                surprisal=surprisal(tau) if tau > 0 else math.inf,
                eta=eta,
                accuracy=(before[-1] - before[j] + after[j]) / n,
            )
        )
    return points


def sweep(log: EpisodeColumns, percentiles: Sequence[float]) -> List[SweepPoint]:
    """Offline threshold sweep over a decompose-all episode log.

    Failed records are left out; each percentile resolves to its
    nearest-rank tau over the rest, and the gate is replayed there.
    """
    valid = ~log.failed
    confidence = log.confidence[valid]
    if not confidence.size:
        raise ValueError("no episodes to sweep")
    ordered = np.sort(confidence)
    taus = [_nearest_rank(ordered, p) for p in percentiles]
    return replay(
        confidence, log.correct_before[valid], log.correct_after[valid], taus, percentiles
    )


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
    log: EpisodeColumns,
    tau: Optional[float] = None,
    qtype_map: Optional[Dict[str, str]] = None,
) -> MetricsReport:
    """Aggregate one episode log into a MetricsReport.

    Failed episodes are excluded from every denominator and reported as a
    count. ``qtype_map`` (question id -> qtype) enables the per-qtype
    breakdown when the originating dataset is available.
    """
    valid = ~log.failed
    second_guessed = log.second_guessed[valid]
    before, after = log.correct_before[valid], log.correct_after[valid]
    n = second_guessed.size
    if not n:
        raise ValueError("no scorable episodes")
    # Decomposed answers that were wrong (E_CR's pool) or right (E_IC's).
    wrong = second_guessed & ~before
    right = second_guessed & before
    wrong_n, right_n = _count(wrong), _count(right)
    acc_before = _count(before) / n
    acc_after = _count(after) / n
    report = MetricsReport(
        n=n,
        accuracy_before=acc_before,
        accuracy_after=acc_after,
        net_gain=(acc_after - acc_before) * 100.0,
        e_cr=_count(wrong & after) / wrong_n if wrong_n else None,
        e_cr_denominator=wrong_n,
        e_ic=_count(right & ~after) / right_n if right_n else None,
        e_ic_denominator=right_n,
        eta=_count(second_guessed) / n,
        tau=tau,
        surprisal=surprisal(tau) if tau is not None and tau > 0 else None,
        failures=len(log.ids) - n,
    )
    if qtype_map is not None:
        qtypes = np.array([qtype_map.get(i, "other") for i in log.ids])[valid]
        for qtype in ("overall", "boolean", "number", "other"):
            mask = np.full(n, True) if qtype == "overall" else qtypes == qtype
            size = _count(mask)
            if size:
                report.per_qtype[qtype] = {
                    "n": size,
                    "accuracy_before": _count(before & mask) / size,
                    "accuracy_after": _count(after & mask) / size,
                }
    return report


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    """Emit the shared SweepPoint CSV schema for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(SweepPoint))
        # vars holds a dataclass's fields in their order.
        writer.writerows(map(repr, vars(p).values()) for p in points)
