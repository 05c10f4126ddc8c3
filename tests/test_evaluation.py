import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_accuracy,
    brute_ecr,
    brute_eic,
    brute_report,
    brute_sweep_accuracy,
    log_columns,
)
from secondguess import evaluation
from secondguess.evaluation import (
    compute_report,
    is_match,
    linear_fit,
    normalize_answer,
    percentile_to_tau,
    surprisal,
    sweep,
    vqa_consensus_score,
)


def episode(eid, conf, before, after, gate="second_guessed", failed=False):
    ep = {
        "id": eid,
        "initial": {"text": "", "confidence": conf},
        "gate": gate,
        "subquestion": None,
        "subanswer": None,
        "subanswer_provenance": None,
        "final": {"text": "", "confidence": conf},
        "correct_before": before,
        "correct_after": after if gate == "second_guessed" else before,
        "malformed_subquestion": False,
        "retries": 0,
    }
    if failed:
        ep["failed"] = True
    return ep


def random_log(rng, n):
    episodes = []
    for i in range(n):
        gate = rng.choice(["kept", "second_guessed"])
        before = rng.random() < 0.6
        after = rng.random() < 0.6
        episodes.append(episode(f"e{i}", rng.random(), before, after, gate))
    return episodes


# --- answer normalization and matching ---------------------------------

def test_normalize_examples():
    assert normalize_answer("Yes.") == "yes"
    assert normalize_answer("  The  banana ") == "banana"
    assert normalize_answer("") == ""
    assert normalize_answer("An apple, a day!") == "apple, a day"
    assert normalize_answer("rain?") == "rain"


def test_is_match_cases():
    assert is_match("Yes", ["yes", "no"])
    assert not is_match("two", ["2"])
    assert is_match("rain", ["rain"])


def test_vqa_consensus():
    answers = ["red", "red", "red", "blue", "crimson"]
    assert vqa_consensus_score("red", answers) == 1.0
    assert vqa_consensus_score("blue", answers) == pytest.approx(1 / 3)
    assert is_match("red", answers, scoring="vqa_consensus")
    assert not is_match("blue", answers, scoring="vqa_consensus")
    # Fewer than 3 answers falls back to exact match.
    assert is_match("blue", ["blue"], scoring="vqa_consensus")


# Answer text built of what the rules act on: case, leading articles,
# terminal punctuation and runs of whitespace, around a few words and any
# text at all.
ANSWER_TEXT = st.lists(
    st.sampled_from(["a", "An", "THE", "the", "yes", "Yes", "red", "RED", "two", "2",
                     ".", ",", "!", "?", " ", "  ", "\t", "\n", "\u3000"])
    | st.text(max_size=4),
    max_size=8,
).map("".join)


def reference_normalize(raw):
    """The normalization rules restated: lowercase, trim, strip terminal
    punctuation, split on whitespace, drop leading articles."""
    words = raw.lower().strip().rstrip(".,!?").split()
    return " ".join(itertools.dropwhile({"a", "an", "the"}.__contains__, words))


@given(ANSWER_TEXT, st.lists(ANSWER_TEXT, min_size=1, max_size=5))
def test_scoring_equals_the_rules_without_the_memo(predicted, answers):
    """The memoised scoring gives what the rules give, on a first call and
    on repeats that the memo answers."""
    pred = reference_normalize(predicted)
    matches = [reference_normalize(a) for a in answers].count(pred)
    consensus = min(matches / 3.0, 1.0)
    for _ in range(2):
        assert normalize_answer(predicted) == pred
        assert is_match(predicted, answers) == (matches > 0)
        assert vqa_consensus_score(predicted, answers) == consensus
        assert is_match(predicted, answers, scoring="vqa_consensus") == (
            consensus >= evaluation.CONSENSUS_THRESHOLD if len(answers) >= 3 else matches > 0
        )


def test_the_scoring_memo_is_bounded():
    """A run whose answers never repeat holds at most a fixed number of
    them."""
    maxsize = normalize_answer.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


# --- rates -------------------------------------------------------------

def test_ecr_manual_enumeration():
    episodes = [
        episode("a", 0.1, False, True),
        episode("b", 0.2, False, False),
        episode("c", 0.3, False, False),
        episode("d", 0.4, False, False),
        episode("e", 0.5, True, True),
    ]
    assert compute_report(log_columns(episodes)).e_cr == 0.25


def test_eic_manual_enumeration():
    episodes = [
        episode("a", 0.1, True, False),
        episode("b", 0.2, True, True),
        episode("c", 0.3, False, False),
    ]
    assert compute_report(log_columns(episodes)).e_ic == 0.5


def test_rates_undefined_are_none():
    all_correct = [episode("a", 0.5, True, True)]
    assert compute_report(log_columns(all_correct)).e_cr is None
    all_wrong = [episode("a", 0.5, False, False)]
    assert compute_report(log_columns(all_wrong)).e_ic is None


def test_eic_zero_when_nothing_changes():
    episodes = [episode("a", 0.5, True, True), episode("b", 0.5, True, True)]
    assert compute_report(log_columns(episodes)).e_ic == 0.0


def test_kept_episodes_excluded_from_rate_denominators():
    episodes = [
        episode("a", 0.9, False, False, gate="kept"),
        episode("b", 0.1, False, True),
    ]
    assert compute_report(log_columns(episodes)).e_cr == 1.0


def test_failed_episodes_excluded():
    episodes = [
        episode("a", 0.5, True, True),
        episode("x", 0.0, False, False, failed=True),
    ]
    report = compute_report(log_columns(episodes))
    assert report.accuracy_before == 1.0
    assert report.n == 1
    assert report.failures == 1


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=200))
def test_rates_match_brute_force_recount(seed, n):
    episodes = random_log(random.Random(seed), n)
    report = compute_report(log_columns(episodes))
    assert report.e_cr == brute_ecr(episodes)
    assert report.e_ic == brute_eic(episodes)
    assert report.accuracy_before == brute_accuracy(episodes, "before")
    assert report.accuracy_after == brute_accuracy(episodes, "after")


# One episode: failed, confidence, gate, correct_before, correct_after, and
# its qtype in the dataset (None: the id is missing from the qtype map).
EPISODE_ROWS = st.tuples(
    st.booleans(),
    st.floats(min_value=0.01, max_value=1.0),
    st.sampled_from(["kept", "second_guessed"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["boolean", "number", "other", None]),
)


@settings(max_examples=200)
@given(st.lists(EPISODE_ROWS, min_size=1, max_size=60), st.data())
def test_compute_report_matches_plain_loop_recount(rows, data):
    """Every field at the log's own gate (tau None) or at a replayed tau,
    one of the log's confidences included, so that ties are gated."""
    assume(not all(row[0] for row in rows))
    confidences = [row[1] for row in rows]
    tau = data.draw(st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from(confidences)))
    # Failed rows keep arbitrary gates and outcomes, so counting one
    # anywhere changes a field. A valid row at or below tau is
    # second-guessed, as at any own gate at or above tau, so that the log
    # answers tau.
    episodes = [
        episode(f"e{i}", conf, before, after,
                "second_guessed" if not failed and tau is not None and conf <= tau else gate,
                failed=failed)
        for i, (failed, conf, gate, before, after, _) in enumerate(rows)
    ]
    qtype_map = {f"e{i}": row[5] for i, row in enumerate(rows) if row[5] is not None}
    fields = compute_report(log_columns(episodes), tau, qtype_map)._asdict()
    assert fields.pop("tau") == tau
    assert fields.pop("surprisal") == (surprisal(tau) if tau else None)
    if tau is not None:
        # The log rewritten as the gate at tau would have written it: a
        # gated answer keeps its correct_after, a kept one scores
        # correct_before.
        episodes = [
            ep if ep.get("failed") else episode(
                ep["id"], ep["initial"]["confidence"], ep["correct_before"], ep["correct_after"],
                "second_guessed" if ep["initial"]["confidence"] <= tau else "kept",
            )
            for ep in episodes
        ]
    assert fields == brute_report(episodes, qtype_map)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=200))
def test_streaming_recount_agrees(seed, n):
    """One-pass streaming counters equal the batch implementation exactly."""
    episodes = random_log(random.Random(seed), n)
    cr_num = cr_den = ic_num = ic_den = 0
    for ep in episodes:
        if ep.get("failed") or ep["gate"] != "second_guessed":
            continue
        if ep["correct_before"]:
            ic_den += 1
            ic_num += not ep["correct_after"]
        else:
            cr_den += 1
            cr_num += ep["correct_after"]
    report = compute_report(log_columns(episodes))
    assert report.e_cr == (cr_num / cr_den if cr_den else None)
    assert report.e_ic == (ic_num / ic_den if ic_den else None)


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=200),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)
def test_accounting_identity(seed, n, tau):
    """n * (accuracy_after - accuracy_before) = corrections - inductions,
    every term read from compute_report, at the log's own gate and at a
    replayed tau: E_CR times its denominator counts the corrections, E_IC
    times its the inductions."""
    rng = random.Random(seed)
    episodes = random_log(rng, n)
    if tau is not None:  # every answer at or below tau second-guessed
        episodes = [
            ep if ep["initial"]["confidence"] > tau else episode(
                ep["id"], ep["initial"]["confidence"], ep["correct_before"], rng.random() < 0.6
            )
            for ep in episodes
        ]
    report = compute_report(log_columns(episodes), tau)
    gain = round(report.n * report.accuracy_after) - round(report.n * report.accuracy_before)
    corrections = round((report.e_cr or 0.0) * report.e_cr_denominator)
    inductions = round((report.e_ic or 0.0) * report.e_ic_denominator)
    assert gain == corrections - inductions


# --- surprisal and thresholds -------------------------------------------

def test_surprisal_exact_points():
    assert surprisal(0.5) == 1.0
    assert surprisal(1.0) == 0.0


def test_surprisal_roundtrip_over_reported_range():
    x = 0.1
    while x <= 22.0:
        assert abs(surprisal(2.0 ** -x) - x) <= 1e-12
        x += 0.1


def test_percentile_to_tau_nearest_rank():
    confs = [0.1, 0.2, 0.3, 0.4]
    assert percentile_to_tau(confs, 50) == 0.2
    assert percentile_to_tau(confs, 100) == 0.4
    assert percentile_to_tau(confs, 0) == 0.0


# --- sweep ---------------------------------------------------------------

def rise_fall_log():
    """Wrong answers all below every correct answer's confidence, with
    nonzero induction among the high-confidence items."""
    episodes = []
    for i in range(10):  # wrong, low confidence, half get corrected
        episodes.append(episode(f"w{i}", 0.05 + i * 0.01, False, i % 2 == 0))
    for i in range(30):  # correct, high confidence, a third get flipped wrong
        episodes.append(episode(f"c{i}", 0.60 + i * 0.01, True, i % 3 != 0))
    return episodes


def test_sweep_endpoints_exact():
    episodes = rise_fall_log()
    points = sweep(log_columns(episodes), [0.0, 100.0])
    assert points[0].accuracy == brute_accuracy(episodes, "before")
    assert points[0].eta == 0.0
    assert points[1].accuracy == brute_accuracy(episodes, "after")
    assert points[1].eta == 1.0


def test_sweep_rise_then_fall_against_exhaustive_enumeration():
    episodes = rise_fall_log()
    percentiles = list(range(0, 101, 5))
    points = sweep(log_columns(episodes), [float(p) for p in percentiles])
    baseline = brute_accuracy(episodes, "before")
    # Exhaustive oracle: try every observed confidence as a threshold.
    all_taus = [0.0] + sorted(ep["initial"]["confidence"] for ep in episodes)
    best_exhaustive = max(brute_sweep_accuracy(episodes, tau) for tau in all_taus)
    best_swept = max(p.accuracy for p in points)
    assert best_swept > baseline
    assert points[-1].accuracy < best_swept
    assert best_swept <= best_exhaustive + 1e-15
    for p in points:
        assert p.accuracy == brute_sweep_accuracy(episodes, p.tau)


def test_sweep_eta_nondecreasing_surprisal_nonincreasing():
    episodes = rise_fall_log()
    points = sweep(log_columns(episodes), [float(p) for p in range(0, 101, 5)])
    for prev, cur in zip(points, points[1:]):
        assert cur.eta >= prev.eta
        assert cur.surprisal <= prev.surprisal


# Confidences from a small set, so that many answers tie at a threshold. The
# lowest is the floor of backend.confidence_of: a log holds 0 only on a
# failed record.
tied_rows = st.lists(
    st.tuples(
        st.sampled_from([sys.float_info.min, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
        st.booleans(),  # correct_before
        st.booleans(),  # correct_after
        st.sampled_from([False, False, False, True]),  # failed
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=100)
@given(tied_rows)
def test_sweep_replay_matches_brute_force(rows):
    assume(not all(failed for *_, failed in rows))
    episodes = [
        episode(f"e{i}", conf, before, after, failed=failed)
        for i, (conf, before, after, failed) in enumerate(rows)
    ]
    valid = [ep for ep in episodes if not ep.get("failed")]
    confidences = [ep["initial"]["confidence"] for ep in valid]
    points = sweep(log_columns(episodes), [float(p) for p in range(101)])
    for point in points:
        assert point.tau == percentile_to_tau(confidences, point.percentile)
        assert point.accuracy == brute_sweep_accuracy(episodes, point.tau)
        gated = sum(1 for conf in confidences if evaluation.gated(conf, point.tau))
        assert point.eta == gated / len(valid)


@settings(max_examples=100)
@given(tied_rows, st.lists(st.booleans(), min_size=60, max_size=60))
def test_sweep_keeps_exactly_the_points_compute_report_answers(rows, kept):
    """A point is in the sweep iff ``compute_report`` at its tau raises no
    ValueError; with none left, ``sweep`` raises the first point's."""
    assume(not all(failed for *_, failed in rows))
    episodes = [
        episode(f"e{i}", conf, before, after, "kept" if keep else "second_guessed", failed)
        for i, ((conf, before, after, failed), keep) in enumerate(zip(rows, kept))
    ]
    log = log_columns(episodes)
    # No percentile 0, whose tau every log answers, so that none may be left.
    percentiles = [float(p) for p in range(10, 101, 10)]
    valid = [ep for ep in episodes if not ep.get("failed")]
    confidences = [ep["initial"]["confidence"] for ep in valid]
    answered, problems = [], []
    for percentile in percentiles:
        tau = percentile_to_tau(confidences, percentile)
        try:
            compute_report(log, tau=tau)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            answered.append(percentile)
    if answered:
        assert [point.percentile for point in sweep(log, percentiles)] == answered
    else:
        with pytest.raises(ValueError) as failure:
            sweep(log, percentiles)
        assert str(failure.value) == problems[0]


# --- regression ----------------------------------------------------------

def test_linear_fit_exact_line():
    fit = linear_fit([(0, 1), (1, 3), (2, 5), (3, 7)])
    assert fit["slope"] == 2.0
    assert fit["intercept"] == 1.0
    assert fit["r_squared"] == 1.0


def test_linear_fit_constant_y():
    fit = linear_fit([(0, 4), (1, 4), (2, 4)])
    assert fit["slope"] == 0.0
    assert fit["r_squared"] == 0.0


def test_linear_fit_degenerate_x():
    with pytest.raises(ValueError):
        linear_fit([(1, 2), (1, 3)])


# Multiples of 1/64 in [-100, 100]: exact floats whose spread, when not 0,
# is at least 1/6,400 of their size, so a fit's rounding stays far below
# the tolerances below.
GRID_VALUES = st.integers(-6400, 6400).map(lambda k: k / 64)


@settings(max_examples=300)
@given(st.lists(st.tuples(GRID_VALUES, GRID_VALUES), min_size=2, max_size=12))
def test_linear_fit_matches_exact_least_squares(points):
    """Slope and intercept within 1e-9 of the exact least-squares line's,
    relative to the larger of each and its scale, the figure a fit's
    rounding grows with; R^2 within 1e-9, and 0 for a constant y."""
    assume(len({x for x, _ in points}) > 1)
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = sxy ** 2 / (sxx * syy) if syy else 0
    slope_scale = math.sqrt(syy / sxx)
    intercept_scale = slope_scale * abs(mean_x) + abs(mean_y)
    fit = linear_fit(points)
    assert set(fit) == {"slope", "intercept", "r_squared"}
    assert math.isclose(fit["slope"], slope, rel_tol=1e-9, abs_tol=1e-9 * slope_scale)
    assert math.isclose(fit["intercept"], intercept, rel_tol=1e-9,
                        abs_tol=1e-9 * float(intercept_scale))
    assert abs(fit["r_squared"] - r_squared) <= 1e-9
    if not syy:
        assert (fit["slope"], fit["r_squared"]) == (0.0, 0.0)


@settings(max_examples=200)
@given(st.lists(GRID_VALUES, min_size=2, max_size=12, unique=True),
       st.floats(-1e3, 1e3, allow_nan=False))
def test_linear_fit_constant_y_whatever_its_mean_rounds_to(xs, y):
    """A constant y of any bounded float, whose mean the float sum and
    division need not return exactly, explains no variance: slope 0 and
    R^2 0, exactly."""
    fit = linear_fit([(x, y) for x in xs])
    assert (fit["slope"], fit["intercept"], fit["r_squared"]) == (0.0, y, 0.0)


# --- report --------------------------------------------------------------

def test_compute_report_identity_and_eta():
    episodes = rise_fall_log() + [episode("k", 0.99, True, True, gate="kept")]
    log = log_columns(episodes)
    report = compute_report(log)
    n = report.n
    corrections = sum(
        1 for ep in episodes if not ep["correct_before"] and ep["correct_after"]
    )
    inductions = sum(
        1 for ep in episodes if ep["correct_before"] and not ep["correct_after"]
    )
    assert report.net_gain == pytest.approx(
        (corrections - inductions) / n * 100.0
    )
    assert report.eta == pytest.approx(40 / 41)
    assert report.e_cr_denominator == 10
    assert report.e_ic_denominator == 30
    # At tau = 0.5 the gate second-guesses the ten wrong answers only.
    replayed = compute_report(log, tau=0.5)
    assert replayed.eta == 10 / 41
    assert replayed.surprisal == surprisal(0.5)
    assert (replayed.e_cr_denominator, replayed.e_ic_denominator) == (10, 0)
    assert replayed.accuracy_after == brute_sweep_accuracy(episodes, 0.5)
    # At 0.99 it would second-guess "k", which the log kept.
    with pytest.raises(ValueError, match="tau 0.99 gates episode 'k', which the log kept"):
        compute_report(log, tau=0.99)


def test_compute_report_per_qtype():
    episodes = [
        episode("b1", 0.5, True, True),
        episode("b2", 0.5, False, True),
        episode("o1", 0.5, False, False),
    ]
    report = compute_report(
        log_columns(episodes), qtype_map={"b1": "boolean", "b2": "boolean", "o1": "other"}
    )
    assert report.per_qtype["overall"]["n"] == 3
    assert report.per_qtype["boolean"]["accuracy_after"] == 1.0
    assert report.per_qtype["other"]["accuracy_after"] == 0.0


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
            st.booleans(),  # correct_before
            st.booleans(),  # correct_after
            st.sampled_from([False, False, False, True]),  # failed
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
)
def test_selective_log_answers_every_tau_at_or_below_its_own(rows, own, tau):
    """A log gated at ``own`` answers tau iff it kept no valid answer gated
    at tau, so every tau <= own; the report then is the replayed gate's."""
    assume(not all(failed for *_, failed in rows))
    episodes = [
        episode(f"e{i}", conf, before, after,
                "second_guessed" if conf <= own else "kept", failed)
        for i, (conf, before, after, failed) in enumerate(rows)
    ]
    kept = [ep["id"] for ep in episodes if not ep.get("failed")
            and ep["gate"] == "kept" and ep["initial"]["confidence"] <= tau]
    log = log_columns(episodes)
    if kept:
        assert tau > own
        with pytest.raises(ValueError, match=f"gates episode '{kept[0]}'"):
            compute_report(log, tau=tau)
        return
    report = compute_report(log, tau=tau)
    valid = [ep for ep in episodes if not ep.get("failed")]
    gated = [ep for ep in valid if ep["initial"]["confidence"] <= tau]
    assert report.eta == len(gated) / len(valid)
    assert report.accuracy_after == brute_sweep_accuracy(episodes, tau)
    assert report.e_cr_denominator == sum(1 for ep in gated if not ep["correct_before"])
    assert report.e_ic_denominator == sum(1 for ep in gated if ep["correct_before"])
