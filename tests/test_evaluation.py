import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_accuracy, brute_ecr, brute_eic, brute_sweep_accuracy
from secondguess import evaluation
from secondguess.evaluation import (
    accuracy,
    compute_report,
    error_correction_rate,
    error_induction_rate,
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
    with pytest.raises(ValueError):
        is_match("x", [])


def test_vqa_consensus():
    answers = ["red", "red", "red", "blue", "crimson"]
    assert vqa_consensus_score("red", answers) == 1.0
    assert vqa_consensus_score("blue", answers) == pytest.approx(1 / 3)
    assert is_match("red", answers, scoring="vqa_consensus")
    assert not is_match("blue", answers, scoring="vqa_consensus")
    # Fewer than 3 answers falls back to exact match.
    assert is_match("blue", ["blue"], scoring="vqa_consensus")


# --- rates -------------------------------------------------------------

def test_ecr_manual_enumeration():
    episodes = [
        episode("a", 0.1, False, True),
        episode("b", 0.2, False, False),
        episode("c", 0.3, False, False),
        episode("d", 0.4, False, False),
        episode("e", 0.5, True, True),
    ]
    assert error_correction_rate(episodes) == 0.25


def test_eic_manual_enumeration():
    episodes = [
        episode("a", 0.1, True, False),
        episode("b", 0.2, True, True),
        episode("c", 0.3, False, False),
    ]
    assert error_induction_rate(episodes) == 0.5


def test_rates_undefined_are_none():
    all_correct = [episode("a", 0.5, True, True)]
    assert error_correction_rate(all_correct) is None
    all_wrong = [episode("a", 0.5, False, False)]
    assert error_induction_rate(all_wrong) is None


def test_eic_zero_when_nothing_changes():
    episodes = [episode("a", 0.5, True, True), episode("b", 0.5, True, True)]
    assert error_induction_rate(episodes) == 0.0


def test_kept_episodes_excluded_from_rate_denominators():
    episodes = [
        episode("a", 0.9, False, False, gate="kept"),
        episode("b", 0.1, False, True),
    ]
    assert error_correction_rate(episodes) == 1.0


def test_failed_episodes_excluded():
    episodes = [
        episode("a", 0.5, True, True),
        episode("x", 0.0, False, False, failed=True),
    ]
    assert accuracy(episodes, "before") == 1.0
    report = compute_report(episodes)
    assert report.n == 1
    assert report.failures == 1


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=200))
def test_rates_match_brute_force_recount(seed, n):
    episodes = random_log(random.Random(seed), n)
    assert error_correction_rate(episodes) == brute_ecr(episodes)
    assert error_induction_rate(episodes) == brute_eic(episodes)
    assert accuracy(episodes, "before") == brute_accuracy(episodes, "before")
    assert accuracy(episodes, "after") == brute_accuracy(episodes, "after")


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
    assert error_correction_rate(episodes) == (cr_num / cr_den if cr_den else None)
    assert error_induction_rate(episodes) == (ic_num / ic_den if ic_den else None)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=200))
def test_accounting_identity(seed, n):
    episodes = random_log(random.Random(seed), n)
    corrections = sum(
        1 for ep in episodes if not ep["correct_before"] and ep["correct_after"]
    )
    inductions = sum(
        1 for ep in episodes if ep["correct_before"] and not ep["correct_after"]
    )
    sum_after = sum(ep["correct_after"] for ep in episodes)
    sum_before = sum(ep["correct_before"] for ep in episodes)
    assert sum_after - sum_before == corrections - inductions


# --- surprisal and thresholds -------------------------------------------

def test_surprisal_exact_points():
    assert surprisal(0.5) == 1.0
    assert surprisal(1.0) == 0.0


def test_surprisal_roundtrip_over_reported_range():
    x = 0.1
    while x <= 22.0:
        assert abs(surprisal(2.0 ** -x) - x) <= 1e-12
        x += 0.1


def test_surprisal_domain():
    with pytest.raises(ValueError):
        surprisal(0.0)
    with pytest.raises(ValueError):
        surprisal(1.5)


def test_percentile_to_tau_nearest_rank():
    confs = [0.1, 0.2, 0.3, 0.4]
    assert percentile_to_tau(confs, 50) == 0.2
    assert percentile_to_tau(confs, 100) == 0.4
    assert percentile_to_tau(confs, 0) == 0.0
    with pytest.raises(ValueError):
        percentile_to_tau([], 50)


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
    points = sweep(episodes, [0.0, 100.0])
    assert points[0].accuracy == brute_accuracy(episodes, "before")
    assert points[0].eta == 0.0
    assert points[1].accuracy == brute_accuracy(episodes, "after")
    assert points[1].eta == 1.0


def test_sweep_rise_then_fall_against_exhaustive_enumeration():
    episodes = rise_fall_log()
    percentiles = list(range(0, 101, 5))
    points = sweep(episodes, [float(p) for p in percentiles])
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
    points = sweep(episodes, [float(p) for p in range(0, 101, 5)])
    for prev, cur in zip(points, points[1:]):
        assert cur.eta >= prev.eta
        assert cur.surprisal <= prev.surprisal


# Confidences from a small set, so that many answers tie at a threshold.
tied_rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
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
    points = sweep(episodes, [float(p) for p in range(101)])
    for point in points:
        assert point.tau == percentile_to_tau(confidences, point.percentile)
        assert point.accuracy == brute_sweep_accuracy(episodes, point.tau)
        gated = sum(1 for conf in confidences if conf <= point.tau)
        assert point.eta == gated / len(valid)


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


# --- report --------------------------------------------------------------

def test_compute_report_identity_and_eta():
    episodes = rise_fall_log() + [episode("k", 0.99, True, True, gate="kept")]
    report = compute_report(episodes, tau=0.5)
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
    assert report.surprisal == surprisal(0.5)
    assert report.e_cr_denominator == 10
    assert report.e_ic_denominator == 30


def test_compute_report_per_qtype():
    episodes = [
        episode("b1", 0.5, True, True),
        episode("b2", 0.5, False, True),
        episode("o1", 0.5, False, False),
    ]
    report = compute_report(
        episodes, qtype_map={"b1": "boolean", "b2": "boolean", "o1": "other"}
    )
    assert report.per_qtype["overall"]["n"] == 3
    assert report.per_qtype["boolean"]["accuracy_after"] == 1.0
    assert report.per_qtype["other"]["accuracy_after"] == 0.0
