import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accuracy_at_tau, trials_to_episodes
from secondguess import evaluation
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
    points = evaluation.sweep(episodes, percentiles)
    for point in points:
        sim_acc, sim_eta, _ = accuracy_at_tau(trials, point.tau)
        assert point.accuracy == sim_acc
        assert point.eta == sim_eta


unit = st.floats(min_value=0.0, max_value=1.0)


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
