"""Answer matching and the metric suite: accuracy, error correction and
induction rates, threshold sweeps, surprisal, and the scaling regression.

All functions here are pure post-processing over immutable episode logs;
nothing issues model calls, and nothing loads numpy. A log is read as
``EpisodeColumns``, one entry per record: 0/1 flags, counted as bit sets,
and confidences, which also come sorted within each (correct_before,
correct_after) class of the valid records. ``gated`` is the one gate rule.
``compute_report`` counts every figure under one gate bit set, the log's own
or ``gated`` at a threshold over the confidences; for ``sweep``, the answers
of a class gated at a threshold are one ``bisect_right`` of the class's
sorted confidences, and ``sweep_points`` turns such counts into points.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

_ARTICLES = ("a", "an", "the")
_TERMINAL_PUNCT = ".,!?"
# The soft consensus score at which vqa_consensus scoring counts a match.
CONSENSUS_THRESHOLD = 0.5
# The classes of a valid answer by (correct_before, correct_after), in the
# order that ``EpisodeColumns.by_class`` and every count by class keep.
CLASSES = ((False, False), (False, True), (True, False), (True, True))


@functools.lru_cache(maxsize=1 << 14)
def normalize_answer(raw: str) -> str:
    """Lowercase, trim, strip terminal punctuation, collapse whitespace,
    and drop leading articles. Memoised: a run scores the same few answer
    strings over and over, and the bound keeps a run whose answers never
    repeat from holding them all. A hit costs a fraction of the rules and a
    miss a little more than them (CHANGES.md, "Each episode line written
    from its fixed layout")."""
    text = raw.lower().strip()
    text = text.rstrip(_TERMINAL_PUNCT)
    tokens = text.split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    return " ".join(tokens)


def vqa_consensus_score(predicted: str, answers: Sequence[str]) -> float:
    """Soft consensus score min(matching annotators / 3, 1)."""
    matches = list(map(normalize_answer, answers)).count(normalize_answer(predicted))
    return min(matches / 3.0, 1.0)


def is_match(predicted: str, answers: Sequence[str], scoring: str = "exact") -> bool:
    """True when the prediction counts as correct against the ground truth.

    Default is normalized exact match against any answer. In
    ``vqa_consensus`` mode, logs with >= 3 annotator answers are scored
    with the soft consensus and thresholded at CONSENSUS_THRESHOLD; smaller
    answer lists fall back to exact match. ``answers`` is never empty.
    """
    if scoring == "vqa_consensus" and len(answers) >= 3:
        return vqa_consensus_score(predicted, answers) >= CONSENSUS_THRESHOLD
    return normalize_answer(predicted) in map(normalize_answer, answers)


def _bits(flags: bytes) -> int:
    """A column of 0/1 bytes as a bit set, entry i at bit 8 * i: ``&``, ``|``
    and ``& ~`` combine such sets as masks, and ``bit_count`` counts one."""
    return int.from_bytes(flags, "little")


class _Columns(NamedTuple):
    ids: List[str]
    failed: bytes
    confidence: array
    second_guessed: bytes
    correct_before: bytes
    correct_after: bytes
    by_class: Optional[array] = None


class EpisodeColumns(_Columns):
    """The fields of an episode log that the evaluation reads, one entry per
    record, failed records included: a list of ids, 0/1 flags a byte each,
    and confidences as doubles. ``by_class`` holds the confidences of the
    valid records class by class, in CLASSES order, each class ascending; it
    is sorted from the columns when not given."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "EpisodeColumns":
        self = super().__new__(cls, *args, **kwargs)
        if self.by_class is not None:
            return self
        by_class = array("d")
        for members in _class_members(self):
            members = members.to_bytes(len(self.ids), "little")
            by_class.fromlist(sorted(compress(self.confidence, members)))
        return self._replace(by_class=by_class)


def _valid(log: EpisodeColumns) -> int:
    """The records that did not fail, as a bit set."""
    return _bits(b"\x01" * len(log.ids)) & ~_bits(log.failed)


def _class_members(log: EpisodeColumns) -> List[int]:
    """The valid records of each class, in CLASSES order, as bit sets."""
    valid = _valid(log)
    before, after = _bits(log.correct_before), _bits(log.correct_after)
    return [valid & (before if b else ~before) & (after if a else ~after) for b, a in CLASSES]


def surprisal(tau: float) -> float:
    """Surprisal of a confidence threshold tau in (0, 1], log2(1/tau)."""
    return math.log2(1.0 / tau)


def gated(confidence: float, tau: float) -> bool:
    """Whether the gate at ``tau`` second-guesses an answer, ties included:
    of answers sorted by confidence, it gates the first ``bisect_right`` of
    tau."""
    return confidence <= tau


def _nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """Nearest-rank quantile of sorted confidences; 0.0 at percentile 0."""
    if percentile == 0:
        return 0.0
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def percentile_to_tau(confidences: Sequence[float], percentile: float) -> float:
    """Nearest-rank empirical quantile of a non-empty confidence distribution.

    Percentile 0 returns the sentinel 0.0 (strictly below every confidence,
    which ``backend.confidence_of`` floors above 0, so nothing is gated);
    percentile 100 returns the maximum (everything satisfies
    confidence <= tau).
    """
    return _nearest_rank(sorted(confidences), percentile)


class SweepPoint(NamedTuple):
    percentile: float
    tau: float
    surprisal: float  # inf at the percentile-0 sentinel
    eta: float
    accuracy: float


def gated_counts(log: EpisodeColumns, taus: Sequence[float]) -> List[Tuple[int, ...]]:
    """For each tau, how many valid answers of each class, in CLASSES order,
    the gate at tau gates: one ``bisect_right`` per class of ``by_class``."""
    ends = list(accumulate((m.bit_count() for m in _class_members(log)), initial=0))
    bounds = list(zip(ends, ends[1:]))
    return [
        tuple(bisect_right(log.by_class, tau, lo, hi) - lo for lo, hi in bounds) for tau in taus
    ]


def sweep_points(
    sizes: Sequence[int],
    taus: Sequence[float],
    counts: Sequence[Sequence[int]],
    percentiles: Optional[Sequence[float]] = None,
) -> List[SweepPoint]:
    """The gate replayed at each tau in [0, 1] over answers in classes of
    ``sizes``, given how many of each class it gates there, as
    ``gated_counts`` gives them: a gated answer scores correct_after, any
    other correct_before, and eta is the gated share. A point's percentile
    is the given one, or 100 * eta without percentiles."""
    n = sum(sizes)
    points = []
    for i, (tau, gated_n) in enumerate(zip(taus, counts)):
        eta = sum(gated_n) / n
        points.append(
            SweepPoint(
                percentile=eta * 100.0 if percentiles is None else percentiles[i],
                tau=tau,
                surprisal=surprisal(tau) if tau > 0 else math.inf,
                eta=eta,
                # Correct before, less those gated there, plus those gated
                # that are correct after: (True, False) leave, (False, True) join.
                accuracy=(sizes[2] + sizes[3] - gated_n[2] + gated_n[1]) / n,
            )
        )
    return points


def _answered(log: EpisodeColumns, taus: Sequence[float]) -> List[int]:
    """The indices of the taus that the log can answer: those that gate no
    valid answer the log kept, which has no answer after it to score.
    ValueError names the first such answer of the first tau if none is left."""
    kept = (_valid(log) & ~_bits(log.second_guessed)).to_bytes(len(log.ids), "little")
    if 1 not in kept:  # as in a decompose-all log
        return list(range(len(taus)))
    # A tau below the lowest kept confidence gates none of them.
    lowest = min(compress(log.confidence, kept))
    answered = [i for i, tau in enumerate(taus) if not gated(lowest, tau)]
    if taus and not answered:
        first = next(
            i for i in compress(range(len(kept)), kept) if gated(log.confidence[i], taus[0])
        )
        raise ValueError(f"tau {taus[0]!r} gates episode {log.ids[first]!r}, which the log kept")
    return answered


def sweep(log: EpisodeColumns, percentiles: Sequence[float]) -> List[SweepPoint]:
    """Offline threshold sweep over an episode log.

    Failed records are left out; each percentile resolves to its
    nearest-rank tau over the rest, and the gate is replayed there. A point
    whose tau the log cannot answer, as ``compute_report`` refuses it, is
    left out; a decompose-all log answers every tau. ValueError if the log
    holds no scorable episode, or if no point is left.
    """
    # The classes are ascending runs, which sorted() merges.
    ordered = sorted(log.by_class)
    if not ordered:
        raise ValueError("no scorable episodes")
    taus = [_nearest_rank(ordered, p) for p in percentiles]
    answered = _answered(log, taus)
    taus = [taus[i] for i in answered]
    # Every confidence is at most 1, so tau = 1 gates each: its counts are
    # the sizes of the classes.
    *counts, sizes = gated_counts(log, [*taus, 1.0])
    return sweep_points(sizes, taus, counts, [percentiles[i] for i in answered])


def linear_fit(points: Sequence[Tuple[float, float]]) -> dict:
    """Ordinary least squares y = slope*x + intercept with R^2, which for a
    line with an intercept is the squared Pearson correlation.

    Constant y yields slope 0 and R^2 = 0 (no variance explained), however
    its mean rounds.
    """
    import statistics  # only `fit` regresses, so no other command loads it

    if len(points) < 2:
        raise ValueError("need at least two points")
    xs, ys = zip(*points)
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError:
        raise ValueError("x values are degenerate") from None
    if min(ys) == max(ys):
        return {"slope": 0.0, "intercept": float(ys[0]), "r_squared": 0.0}
    return {"slope": slope, "intercept": intercept,
            "r_squared": statistics.correlation(xs, ys) ** 2}


class MetricsReport(NamedTuple):
    n: int
    accuracy_before: float
    accuracy_after: float
    net_gain: float  # percentage points
    e_cr: Optional[float]
    e_cr_denominator: int
    e_ic: Optional[float]
    e_ic_denominator: int
    eta: float
    tau: Optional[float]
    surprisal: Optional[float]
    failures: int
    per_qtype: Dict[str, dict]  # empty without a qtype map


def compute_report(
    log: EpisodeColumns,
    tau: Optional[float] = None,
    qtype_map: Optional[Dict[str, str]] = None,
) -> MetricsReport:
    """Aggregate one episode log into a MetricsReport at the log's own gate,
    or at the gate at ``tau`` replayed as ``sweep`` does: a gated answer
    scores correct_after, a kept one correct_before. A log that kept a valid
    answer ``gated`` at tau cannot answer it: ValueError names the first.

    Failed episodes are excluded from every denominator and reported as a
    count. ``qtype_map`` (question id -> qtype) enables the per-qtype
    breakdown when the originating dataset is available.
    """
    valid = _valid(log)
    n = valid.bit_count()
    if not n:
        raise ValueError("no scorable episodes")
    before, after = _bits(log.correct_before), _bits(log.correct_after)
    if tau is None:
        gate = _bits(log.second_guessed)
    else:
        _answered(log, [tau])
        gate = _bits(bytes(map(gated, log.confidence, repeat(tau))))
        after = (gate & after) | (before & ~gate)
    gate &= valid
    acc_before = (before & valid).bit_count() / n
    acc_after = (after & valid).bit_count() / n
    # Decomposed answers that were wrong (E_CR's pool) or right (E_IC's).
    wrong, right = gate & ~before, gate & before
    wrong_n, right_n = wrong.bit_count(), right.bit_count()
    report = MetricsReport(
        n=n,
        accuracy_before=acc_before,
        accuracy_after=acc_after,
        net_gain=(acc_after - acc_before) * 100.0,
        e_cr=(wrong & after).bit_count() / wrong_n if wrong_n else None,
        e_cr_denominator=wrong_n,
        e_ic=(right & ~after).bit_count() / right_n if right_n else None,
        e_ic_denominator=right_n,
        eta=gate.bit_count() / n,
        tau=tau,
        surprisal=surprisal(tau) if tau is not None and tau > 0 else None,
        failures=len(log.ids) - n,
        per_qtype={},
    )
    if qtype_map is not None:
        qtypes = list(map(qtype_map.get, log.ids, repeat("other")))
        for qtype in ("overall", "boolean", "number", "other"):
            mask = valid
            if qtype != "overall":
                mask &= _bits(bytes(map(qtype.__eq__, qtypes)))
            size = mask.bit_count()
            if size:
                report.per_qtype[qtype] = {
                    "n": size,
                    "accuracy_before": (before & mask).bit_count() / size,
                    "accuracy_after": (after & mask).bit_count() / size,
                }
    return report


def write_sweep_csv(points: Sequence[SweepPoint], fh) -> None:
    """Emit the SweepPoint CSV schema for plotting to ``fh``, opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(SweepPoint._fields)
    writer.writerows(map(repr, p) for p in points)
