import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accuracy_at_tau, log_columns, trials_to_episodes
from secondguess import evaluation
from secondguess.evaluation import BLOCK
from secondguess.simulator import (
    SimConfig,
    closed_form_decompose_all,
    generate_trials,
    simulate,
)

TAU_GRID = [i / 20 for i in range(21)]


def test_closed_form_examples():
    assert closed_form_decompose_all(SimConfig(0.5, 0.0, 0.0)) == 0.5
    assert closed_form_decompose_all(SimConfig(1.0, 0.0, 0.1)) == pytest.approx(0.9)
    # Oracle-decomposer rates: Err 22.07 -> Acc 0.7793.
    assert closed_form_decompose_all(
        SimConfig(0.7793, 0.5151, 0.0839)
    ) == pytest.approx(0.8276, abs=5e-5)


def test_closed_gate_returns_base_accuracy_exactly():
    cfg = SimConfig(0.7, 0.4, 0.2, trials=10_000, seed=3)
    curve = simulate(cfg, [0.0, 0.5, 1.0])
    assert curve.points[0].accuracy == cfg.base_accuracy
    assert curve.points[0].eta == 0.0


def test_open_gate_matches_closed_form():
    cfg = SimConfig(0.7, 0.4, 0.2, trials=200_000, seed=5)
    curve = simulate(cfg, [1.0])
    point = curve.points[0]
    expected = closed_form_decompose_all(cfg)
    stderr = math.sqrt(point.accuracy * (1.0 - point.accuracy) / cfg.trials)
    assert abs(point.accuracy - expected) <= 3 * stderr
    assert point.eta == 1.0


def test_seed_determinism():
    cfg = SimConfig(0.6, 0.3, 0.1, trials=20_000, seed=42)
    a = simulate(cfg, TAU_GRID)
    b = simulate(cfg, TAU_GRID)
    assert [p.accuracy for p in a.points] == [p.accuracy for p in b.points]


def test_eta_monotone_in_tau():
    cfg = SimConfig(0.6, 0.3, 0.1, trials=20_000, seed=42)
    curve = simulate(cfg, TAU_GRID)
    etas = [p.eta for p in curve.points]
    assert etas == sorted(etas)


def test_optimal_tau_zero_when_decomposition_only_hurts():
    cfg = SimConfig(0.7, 0.0, 0.3, trials=50_000, seed=1)
    curve = simulate(cfg, TAU_GRID)
    assert curve.optimal_tau == 0.0
    assert curve.optimal_accuracy == cfg.base_accuracy


def test_full_gate_optimal_when_decomposition_only_helps():
    # Without induction the curve is nondecreasing and plateaus once every
    # wrong trial is gated, so tau=1 attains the maximum (ties break low).
    cfg = SimConfig(0.7, 0.5, 0.0, trials=50_000, seed=1)
    curve = simulate(cfg, TAU_GRID)
    accs = [p.accuracy for p in curve.points]
    assert accs == sorted(accs)
    assert curve.optimal_accuracy == accs[-1]
    assert curve.optimal_accuracy > cfg.base_accuracy


def test_rise_then_fall_with_separated_calibration():
    # Wrong answers concentrate low, correct high; induction is costly at
    # the top end, so the argmax sits strictly inside the grid.
    cfg = SimConfig(
        0.7,
        0.6,
        0.4,
        conf_correct=(12.0, 2.0),
        conf_incorrect=(2.0, 12.0),
        trials=100_000,
        seed=9,
    )
    curve = simulate(cfg, TAU_GRID)
    base = curve.points[0].accuracy
    best = max(p.accuracy for p in curve.points)
    assert best > base
    assert curve.points[-1].accuracy < best
    assert 0.0 < curve.optimal_tau < 1.0
    # Dense grid search oracle agrees on the achievable maximum.
    trials = generate_trials(cfg)
    dense = [i / 400 for i in range(401)]
    dense_best = max(accuracy_at_tau(trials, t)[0] for t in dense)
    assert best <= dense_best + 1e-15


def test_tie_breaks_toward_smaller_tau():
    cfg = SimConfig(1.0, 0.0, 0.0, trials=1_000, seed=0)  # flat curve at 1.0
    curve = simulate(cfg, TAU_GRID)
    assert curve.optimal_tau == 0.0
    assert curve.optimal_accuracy == 1.0


def test_sweep_cross_validation_exact():
    """The evaluation module's offline gate replay over the synthetic
    episode log reproduces the simulator's curve exactly."""
    cfg = SimConfig(0.65, 0.5, 0.2, trials=5_000, seed=21)
    trials = generate_trials(cfg)
    episodes = trials_to_episodes(trials)
    percentiles = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0]
    points = evaluation.sweep(log_columns(episodes), percentiles)
    for point in points:
        sim_acc, sim_eta, _ = accuracy_at_tau(trials, point.tau)
        assert point.accuracy == sim_acc
        assert point.eta == sim_eta


# The sha256 of the confidence, correct_before and correct_after bytes of
# 1,000 trials (e_cr 0.5, e_ic 0.2) per base accuracy and seed. Each digest
# was taken from the code that drew both Beta samples whole and merged them
# with np.where, before the trials were drawn in place.
PINNED_TRIALS = [
    (0.0, 0, "5b3e184eb2c2f73f28b8fa3865acdfdb92c9f194b46fa0a666bac486d832bf04"),
    (0.0, 7, "e4f486d6e86e7e8e58bda8c273616bea1f68005afbba5b6cb9ea1e794c80e402"),
    (0.0, 2**32 - 1, "5d5c1ebe2274ccaea3775b51e9ba0a78c707ecbcc53d9889b8fcebe747565396"),
    (0.65, 0, "64bf53254011db800815ea8ff357430bdc9cfbff4dac0dba7b88871e3b1aff50"),
    (0.65, 7, "ebf4dcf78646aee60fd849fda71fde1ff9a965092957cfe0508ca48dc8241665"),
    (0.65, 2**32 - 1, "bc1c72d688d9433e04da1f6f1c5fc8dfeda2e87654d2f5ddf0480473a78b58e3"),
    (1.0, 0, "d017ed05184dc8277a435fdade6e2bfae6118062b9afb26d702961bad4de4ab1"),
    (1.0, 7, "696554ac4ce479a0714a86f2cdd9e4a52331bdd35ab123fc9c3618a5066d0ece"),
    (1.0, 2**32 - 1, "3ad64708cbb7ea240e6e35d7ce4c2b51a0c15d5e470f5f897e46d553b6c54b8b"),
]


@pytest.mark.parametrize("acc, seed, digest", PINNED_TRIALS)
def test_trial_stream_pinned(acc, seed, digest):
    trials = generate_trials(SimConfig(acc, 0.5, 0.2, trials=1_000, seed=seed))
    h = hashlib.sha256()
    for column in (trials.confidence, trials.correct_before, trials.correct_after):
        h.update(column.tobytes())
    assert h.hexdigest() == digest


def whole_array_trials(cfg: SimConfig) -> tuple:
    """The reference draw: both Beta samples and the flips drawn whole, as
    generate_trials drew them before it drew in blocks."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trials
    n_correct = int(round(cfg.base_accuracy * n))
    correct_before = np.zeros(n, dtype=bool)
    correct_before[:n_correct] = True
    confidence = rng.beta(*cfg.conf_correct, size=n)
    confidence[n_correct:] = rng.beta(*cfg.conf_incorrect, size=n)[n_correct:]
    np.maximum(confidence, np.finfo(float).tiny, out=confidence)
    flip = rng.random(n)
    corrected = ~correct_before & (flip < cfg.e_cr)
    induced = correct_before & (flip < cfg.e_ic)
    correct_after = (correct_before | corrected) & ~induced
    return confidence, correct_before, correct_after


unit = st.floats(min_value=0.0, max_value=1.0)
# numpy draws a Beta by Johnk's method when both shapes are at most 1, else
# as a ratio of gammas; each shape here falls on either side of 1.
beta_shape = st.tuples(*[st.one_of(st.floats(0.1, 0.99), st.floats(1.0, 20.0))] * 2)


@st.composite
def block_configs(draw) -> SimConfig:
    """Trial counts below, at, one past and at multiples of the block size;
    base accuracies 0, 1, random, and with n_correct on a block boundary."""
    sizes = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK, 3 * BLOCK + 1]
    n = draw(st.one_of(st.sampled_from(sizes), st.integers(1, 4 * BLOCK)))
    on_boundary = st.integers(0, n // BLOCK).map(lambda k: k * BLOCK / n)
    acc = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit, on_boundary))
    return SimConfig(
        acc,
        draw(unit),
        draw(unit),
        conf_correct=draw(beta_shape),
        conf_incorrect=draw(beta_shape),
        trials=n,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(block_configs())
def test_block_draw_equals_whole_array_draw(cfg):
    trials = generate_trials(cfg)
    expected = whole_array_trials(cfg)
    got = (trials.confidence, trials.correct_before, trials.correct_after)
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()


def test_generate_trials_memory_per_trial():
    """Drawn in blocks, 200,000 trials peak below 13 traced bytes each: the
    three columns take 10, and one block of floats while drawing. The draw
    before tracing keeps one-time imports out of the count."""
    cfg = SimConfig(0.65, 0.5, 0.2, trials=200_000, seed=1)
    generate_trials(cfg)
    tracemalloc.start()
    try:
        generate_trials(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 200_000 < 13


@settings(max_examples=50, deadline=None)
@given(
    unit,
    unit,
    unit,
    st.integers(min_value=1, max_value=2_000),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=1, max_size=8),
)
def test_simulate_matches_reference(acc, ecr, eic, n, seed, taus):
    cfg = SimConfig(acc, ecr, eic, trials=n, seed=seed)
    curve = simulate(cfg, taus)
    trials = generate_trials(cfg)
    assert [p.tau for p in curve.points] == taus
    for point in curve.points:
        ref_acc, ref_eta, _ = accuracy_at_tau(trials, point.tau)
        assert (point.accuracy, point.eta) == (ref_acc, ref_eta)
        assert point.percentile == ref_eta * 100.0
        expected = math.log2(1.0 / point.tau) if point.tau > 0 else math.inf
        assert point.surprisal == expected
        # write_sweep_csv writes repr(), which spells numpy scalars out.
        assert all(type(v) is float for v in (point.accuracy, point.eta, point.percentile))
    assert curve.decompose_all_accuracy == accuracy_at_tau(trials, 1.0)[0]


def test_replay_across_blocks_equals_per_tau_recount():
    """``replay`` bins the trials BLOCK at a time: past two block
    boundaries, an unsorted tau list with repeats, 0, the extreme
    confidences and confidences from the first and a later block gives the
    points of one mask per tau, with percentiles given and omitted."""
    trials = generate_trials(SimConfig(0.65, 0.3, 0.1, trials=40_000, seed=23))
    conf = trials.confidence
    assert conf.size > 2 * BLOCK
    taus = [0.5, 0.0, float(conf[3]), 1.0, float(conf[BLOCK + 5]), 0.5, float(conf.max()),
            float(conf[3]), float(conf.min()), 0.25, float(conf[-1]), 0.0]
    for percentiles in (None, [float(p) for p in range(50, 50 + len(taus))]):
        points = evaluation.replay(
            conf, trials.correct_before, trials.correct_after, taus, percentiles
        )
        expected = []
        for i, tau in enumerate(taus):
            accuracy, eta, _ = accuracy_at_tau(trials, tau)
            expected.append(evaluation.SweepPoint(
                percentile=eta * 100.0 if percentiles is None else percentiles[i],
                tau=tau,
                surprisal=math.log2(1.0 / tau) if tau > 0 else math.inf,
                eta=eta,
                accuracy=accuracy,
            ))
        assert points == expected


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.5, -0.1, 0.0)
    with pytest.raises(ValueError):
        SimConfig(0.5, 0.0, 0.0, conf_correct=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimConfig(0.5, 0.0, 0.0, trials=0)
    with pytest.raises(ValueError):
        simulate(SimConfig(0.5, 0.0, 0.0), [])
