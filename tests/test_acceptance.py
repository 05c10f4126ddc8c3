"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line. Every check runs against the mock backend or pure
functions; no network access is required. Run with `pytest -s` to see the
per-criterion lines on a passing suite.
"""

import functools
import json
import math
import random
import time
from pathlib import Path

from click.testing import CliRunner

from conftest import (
    FOUR_EPISODE_SPECS,
    QSpec,
    RecordingBackend,
    accuracy_at_tau,
    brute_accuracy,
    brute_sweep_accuracy,
    log_columns,
    run_mode,
    spec_backend,
    spec_questions,
    trials_to_episodes,
    write_script,
)
from secondguess import dataset, evaluation, pipeline, prompts, simulator
from secondguess.cli import main as cli_main
from secondguess.evaluation import (
    compute_report,
    linear_fit,
    surprisal,
    sweep,
)
from secondguess.pipeline import Engine, PipelineConfig
from secondguess.simulator import SimConfig

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "prompts"

EIGHT_SPECS = FOUR_EPISODE_SPECS + [
    QSpec("q5", "is the grass green?", "yes", "yes", 0.95),
    QSpec("q6", "is the sun out?", "yes", "no", 0.15, "is it bright?", "yes", "yes"),
    QSpec("q7", "is it snowing?", "no", "yes", 0.25, "is it cold enough?", "no", "no"),
    QSpec("q8", "is the shop open?", "no", "no", 0.6),
]


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({label}): FAIL")
                raise
            print(f"criterion {num:02d} ({label}): PASS")

        return inner

    return wrap


def synthetic_episode(eid, conf, before, after, gate):
    return {
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


def synthetic_log(rng, n):
    return [
        synthetic_episode(
            f"e{i}",
            rng.random(),
            rng.random() < 0.6,
            rng.random() < 0.6,
            rng.choice(["kept", "second_guessed"]),
        )
        for i in range(n)
    ]


@criterion(1, "prompt templates match golden fixtures byte-for-byte")
def test_c01_prompt_goldens():
    start = time.perf_counter()
    for kind, template in prompts.TEMPLATES.items():
        golden = (GOLDEN_DIR / f"{kind}.txt").read_bytes()
        assert template.encode("utf-8") == golden, kind
    assert time.perf_counter() - start < 1.0


@criterion(2, "metrics equal brute-force recounts on 200 random logs")
def test_c02_metric_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        episodes = synthetic_log(rng, rng.randint(1, 200))
        report = compute_report(log_columns(episodes))
        assert report.e_cr == _brute_rate(episodes, False)
        assert report.e_ic == _brute_rate(episodes, True)
        assert report.accuracy_before == brute_accuracy(episodes, "before")
        assert report.accuracy_after == brute_accuracy(episodes, "after")
    assert time.perf_counter() - start < 10.0


def _brute_rate(episodes, want_before):
    pool = [
        ep
        for ep in episodes
        if not ep.get("failed")
        and ep["gate"] == "second_guessed"
        and ep["correct_before"] == want_before
    ]
    if not pool:
        return None
    flipped = sum(1 for ep in pool if ep["correct_after"] != want_before)
    return flipped / len(pool)


@criterion(3, "accuracy delta times n equals corrections minus inductions")
def test_c03_accounting_identity():
    for seed in range(200):
        rng = random.Random(1000 + seed)
        episodes = synthetic_log(rng, rng.randint(1, 200))
        n = len(episodes)
        before = sum(ep["correct_before"] for ep in episodes)
        after = sum(ep["correct_after"] for ep in episodes)
        corrections = sum(
            1 for ep in episodes if not ep["correct_before"] and ep["correct_after"]
        )
        inductions = sum(
            1 for ep in episodes if ep["correct_before"] and not ep["correct_after"]
        )
        assert after - before == corrections - inductions
        report = compute_report(log_columns(episodes))
        delta = report.accuracy_after - report.accuracy_before
        assert round(delta * n) == corrections - inductions


@criterion(4, "gate endpoints reproduce baseline / decompose-all exactly")
def test_c04_gate_endpoints():
    baseline, _ = run_mode(EIGHT_SPECS, "direct")
    closed, engine = run_mode(EIGHT_SPECS, "selective", tau_percentile=0.0)
    assert engine.decomposer_calls == 0
    assert (
        compute_report(log_columns(closed)).accuracy_after
        == compute_report(log_columns(baseline)).accuracy_after
    )

    everything, _ = run_mode(EIGHT_SPECS, "decompose_all")
    (point,) = sweep(log_columns(everything), [100.0])
    assert point.accuracy == compute_report(log_columns(everything)).accuracy_after
    assert point.eta == 1.0


@criterion(5, "sweep curve rises then falls; heavy induction nets a loss")
def test_c05_curve_shape():
    start = time.perf_counter()
    # Calibrated log: every wrong answer sits strictly below every correct
    # one, and a third of the confident-correct items flip wrong.
    episodes = []
    for i in range(10):
        episodes.append(
            synthetic_episode(f"w{i}", 0.05 + i * 0.01, False, i % 2 == 0, "second_guessed")
        )
    for i in range(30):
        episodes.append(
            synthetic_episode(f"c{i}", 0.60 + i * 0.01, True, i % 3 != 0, "second_guessed")
        )
    points = sweep(log_columns(episodes), [float(p) for p in range(0, 101, 5)])
    baseline = brute_accuracy(episodes, "before")
    best = max(p.accuracy for p in points)
    assert best > baseline
    assert points[-1].accuracy < best
    # Exhaustive enumeration over every observed confidence as threshold.
    taus = [0.0] + [ep["initial"]["confidence"] for ep in episodes]
    exhaustive_best = max(brute_sweep_accuracy(episodes, t) for t in taus)
    assert best <= exhaustive_best + 1e-15
    for p in points:
        assert p.accuracy == brute_sweep_accuracy(episodes, p.tau)

    # Induction-dominated log: Acc*E_IC > (1-Acc)*E_CR, so decomposing
    # everything lands below the baseline.
    harmful = []
    for i in range(20):
        harmful.append(
            synthetic_episode(f"hw{i}", 0.3, False, i % 2 == 0, "second_guessed")
        )
    for i in range(80):
        harmful.append(
            synthetic_episode(f"hc{i}", 0.7, True, i % 2 != 0, "second_guessed")
        )
    acc = brute_accuracy(harmful, "before")
    report = compute_report(log_columns(harmful))
    e_cr, e_ic = report.e_cr, report.e_ic
    assert acc * e_ic > (1 - acc) * e_cr
    (full,) = sweep(log_columns(harmful), [100.0])
    assert full.accuracy < acc
    assert time.perf_counter() - start < 5.0


@criterion(6, "million-trial simulation agrees with the closed form")
def test_c06_simulator_closed_form():
    start = time.perf_counter()
    # Reference operating point: oracle-decomposer correction/induction
    # rates measured at integration scale.
    reference = SimConfig(0.7793, 0.5151, 0.0839, trials=10**6, seed=11)
    generic = SimConfig(0.7, 0.4, 0.2, trials=10**6, seed=12)
    for cfg in (reference, generic):
        expected = simulator.closed_form_decompose_all(cfg)
        curve = simulator.simulate(cfg, [1.0])
        point = curve.points[0]
        stderr = math.sqrt(point.accuracy * (1.0 - point.accuracy) / cfg.trials)
        assert abs(point.accuracy - expected) <= 3 * stderr
        assert abs(point.accuracy - expected) <= 0.005
    assert simulator.closed_form_decompose_all(reference) == (
        0.8276
    ) or abs(simulator.closed_form_decompose_all(reference) - 0.8276) < 5e-5
    assert time.perf_counter() - start < 30.0


@criterion(7, "simulator trials replayed through the sweep match exactly")
def test_c07_simulator_sweep_cross_validation():
    cfg = SimConfig(0.65, 0.5, 0.2, trials=20_000, seed=21)
    trials = simulator.generate_trials(cfg)
    episodes = trials_to_episodes(trials)
    points = sweep(log_columns(episodes), [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0])
    for point in points:
        sim_acc, sim_eta, _ = accuracy_at_tau(trials, point.tau)
        assert point.accuracy == sim_acc == brute_sweep_accuracy(episodes, point.tau)
        assert point.eta == sim_eta


@criterion(8, "threshold surprisal identities hold across the working range")
def test_c08_surprisal():
    assert surprisal(0.5) == 1.0
    assert surprisal(1.0) == 0.0
    for i in range(1, 221):
        x = i / 10
        assert abs(surprisal(2.0 ** -x) - x) <= 1e-12


@criterion(9, "caption-matching conversion is balanced with 50% chance level")
def test_c09_winoground_conversion():
    records = [
        {
            "id": f"w{i}",
            "image_0": f"w{i}_0.png",
            "image_1": f"w{i}_1.png",
            "caption_0": f"a dog chases cat {i}",
            "caption_1": f"a cat chases dog {i}",
        }
        for i in range(2)
    ]
    questions, warnings = dataset.convert_winoground(records)
    assert len(questions) == 8
    assert warnings == 0
    assert len({q.image for q in questions}) == 4
    labels = [q.answers[0] for q in questions]
    assert labels.count("yes") == labels.count("no") == 4
    constant_yes = sum(
        evaluation.is_match("yes", list(q.answers)) for q in questions
    ) / len(questions)
    assert constant_yes == 0.5


@criterion(10, "identical config and seed give byte-identical artifacts")
def test_c10_determinism(tmp_path):
    data = tmp_path / "dataset.jsonl"
    dataset.save_dataset(spec_questions(EIGHT_SPECS), data)
    script = tmp_path / "script.jsonl"
    write_script(EIGHT_SPECS, script)
    runner = CliRunner()
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            [
                "run",
                "--dataset", str(data),
                "--mock-script", str(script),
                "--mode", "selective",
                "--tau", "0.3",
                "--seed", "11",
                "--concurrency", "3",
                "--out", str(out),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        blobs.append(
            (
                (out / "episodes.jsonl").read_bytes(),
                (out / "metrics.json").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


@criterion(11, "least-squares fit recovers an exact line")
def test_c11_regression():
    fit = linear_fit([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)])
    assert fit["slope"] == 2.0
    assert fit["intercept"] == 1.0
    assert fit["r_squared"] == 1.0
    # Integration-scale reference values (net gain vs. threshold surprisal
    # across large-model runs): slope 0.0215, R^2 0.40. They need full-size
    # models and datasets, so they are documented here rather than asserted.


@criterion(12, "in-flight bound holds and resumed runs never duplicate ids")
def test_c12_concurrency_and_resume(tmp_path):
    specs = [
        QSpec(f"c{i:02d}", f"is item {i} red?", "yes", "yes", 0.9)
        for i in range(20)
    ]
    backend = RecordingBackend(spec_backend(specs))
    engine = Engine(recomposer=backend, decomposer=backend)
    cfg = PipelineConfig(mode="direct", concurrency=4)
    questions = spec_questions(specs)
    sink = tmp_path / "episodes.jsonl"
    pipeline.run(questions, cfg, engine, sink)
    assert backend.max_in_flight <= 4

    # Drop the second half of the log and resume; ids must stay unique.
    lines = sink.read_text().splitlines()
    sink.write_text("".join(line + "\n" for line in lines[:10]))
    pipeline.run(questions, cfg, engine, sink)
    ids = [json.loads(line)["id"] for line in sink.read_text().splitlines()]
    assert len(ids) == 20
    assert len(set(ids)) == 20
    assert ids == [q.id for q in questions]
