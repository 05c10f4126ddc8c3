import json

import pytest
from click.testing import CliRunner

from conftest import FOUR_EPISODE_SPECS, QSpec, spec_questions, write_script
from secondguess import dataset
from secondguess.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    """Dataset + mock script for an 8-question end-to-end fixture."""
    specs = FOUR_EPISODE_SPECS + [
        QSpec("q5", "is the grass green?", "yes", "yes", 0.95),
        QSpec("q6", "is the sun out?", "yes", "no", 0.15, "is it bright?", "yes", "yes"),
        QSpec("q7", "is it snowing?", "no", "yes", 0.25, "is it cold enough?", "no", "no"),
        QSpec("q8", "is the shop open?", "no", "no", 0.6),
    ]
    data = tmp_path / "dataset.jsonl"
    dataset.save_dataset(spec_questions(specs), data)
    script = tmp_path / "script.jsonl"
    write_script(specs, script)
    return tmp_path, data, script


def run_cli(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_run_end_to_end(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    result = run_cli(
        runner,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "selective",
            "--tau", "0.3",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    episodes = [
        json.loads(line)
        for line in (out / "episodes.jsonl").read_text().splitlines()
    ]
    assert len(episodes) == 8
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n"] == 8
    assert metrics["tau"] == 0.3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["seed"] == 0
    assert manifest["backend_calls"] > 0


def test_run_invalid_tau_exits_2(runner, workspace):
    tmp, data, script = workspace
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "selective",
            "--tau", "1.5",
            "--out", str(tmp / "out"),
        ],
    )
    assert result.exit_code == 2
    assert "tau" in result.output + result.stderr


def test_run_unknown_config_key_exits_2(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "direct", "frobnicate": 1}))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    assert "frobnicate" in result.output + result.stderr


def test_run_missing_dataset_exits_3(runner, workspace):
    tmp, _, script = workspace
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset", str(tmp / "nope.jsonl"),
            "--mock-script", str(script),
            "--mode", "direct",
            "--out", str(tmp / "out"),
        ],
    )
    assert result.exit_code == 3


def test_run_resume_no_duplicates(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    args = [
        "run",
        "--dataset", str(data),
        "--mock-script", str(script),
        "--mode", "direct",
        "--out", str(out),
    ]
    assert run_cli(runner, args).exit_code == 0
    assert run_cli(runner, args).exit_code == 0  # resume over a complete log
    ids = [
        json.loads(line)["id"]
        for line in (out / "episodes.jsonl").read_text().splitlines()
    ]
    assert len(ids) == len(set(ids)) == 8


def test_determinism_across_directories(runner, workspace):
    tmp, data, script = workspace
    blobs = []
    for name in ("out_a", "out_b"):
        out = tmp / name
        result = run_cli(
            runner,
            [
                "run",
                "--dataset", str(data),
                "--mock-script", str(script),
                "--mode", "selective",
                "--tau", "0.3",
                "--seed", "7",
                "--concurrency", "4",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        blobs.append(
            (
                (out / "episodes.jsonl").read_bytes(),
                (out / "metrics.json").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_sweep_endpoints_and_purity(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    run_cli(
        runner,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "decompose_all",
            "--out", str(out),
        ],
    )
    log = out / "episodes.jsonl"
    sweep_args = ["sweep", "--log", str(log), "--out", str(out)]
    assert run_cli(runner, sweep_args).exit_code == 0
    first = (out / "sweep.csv").read_bytes()
    rows = first.decode().strip().splitlines()
    assert rows[0] == "percentile,tau,surprisal,eta,accuracy"
    assert len(rows) == 22  # header + default grid {0,5,...,100}
    etas = [float(r.split(",")[3]) for r in rows[1:]]
    assert etas == sorted(etas)

    metrics = json.loads((out / "metrics.json").read_text())
    first_point = rows[1].split(",")
    last_point = rows[-1].split(",")
    assert float(first_point[4]) == metrics["accuracy_before"]
    assert float(last_point[4]) == metrics["accuracy_after"]

    assert run_cli(runner, sweep_args).exit_code == 0
    assert (out / "sweep.csv").read_bytes() == first  # rerun is pure


def make_oracle_dataset(tmp_path):
    questions = []
    for q in spec_questions(FOUR_EPISODE_SPECS):
        questions.append(
            dataset.VisualQuestion(
                id=q.id,
                image=q.image,
                question=q.question,
                answers=q.answers,
                qtype="boolean",
                oracle_sub_qas=(
                    dataset.SubQA("is the light on", "yes"),
                    dataset.SubQA("is anyone home", "no"),
                ),
            )
        )
    path = tmp_path / "oracle.jsonl"
    dataset.save_dataset(questions, path)
    return path


def write_catchall_script(tmp_path):
    # Spec entries plus catch-alls for oracle recompositions/sub-answers.
    script = tmp_path / "oracle_script.jsonl"
    write_script(FOUR_EPISODE_SPECS, script)
    with open(script, "a", encoding="utf-8") as fh:
        for contains, text in (("Context: ", "yes"), ("Question: ", "maybe")):
            fh.write(
                json.dumps(
                    {
                        "match": {"prompt_contains": contains, "role": "recomposer"},
                        "response": {"text": text, "token_logprobs": [-0.4]},
                    }
                )
                + "\n"
            )
    return script


@pytest.mark.parametrize("condition", ["oracle", "self_answer", "no_answer", "scrambled"])
def test_oracle_conditions(runner, tmp_path, condition):
    data = make_oracle_dataset(tmp_path)
    script = write_catchall_script(tmp_path)
    out = tmp_path / f"out_{condition}"
    result = run_cli(
        runner,
        [
            "oracle",
            "--condition", condition,
            "--dataset", str(data),
            "--mock-script", str(script),
            "--seed", "7",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "metrics.json").read_text())
    assert report["condition"] == condition
    assert report["answers_present"] == (condition != "no_answer")
    assert "overall" in report["per_qtype"]
    assert "boolean" in report["per_qtype"]


def test_oracle_scrambled_deterministic_artifacts(runner, tmp_path):
    data = make_oracle_dataset(tmp_path)
    script = write_catchall_script(tmp_path)
    blobs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        result = run_cli(
            runner,
            [
                "oracle",
                "--condition", "scrambled",
                "--dataset", str(data),
                "--mock-script", str(script),
                "--seed", "7",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        blobs.append((out / "episodes.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_oracle_requires_subqas(runner, workspace):
    tmp, data, script = workspace  # plain dataset, no sub_qas
    result = runner.invoke(
        main,
        [
            "oracle",
            "--condition", "oracle",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--out", str(tmp / "out"),
        ],
    )
    assert result.exit_code == 3


def test_convert_and_stats(runner, tmp_path):
    source = tmp_path / "winoground.jsonl"
    records = [
        {
            "id": f"w{i}",
            "image_0": f"w{i}_0.png",
            "image_1": f"w{i}_1.png",
            "caption_0": f"an old person kisses a young person {i}",
            "caption_1": f"a young person kisses an old person {i}",
        }
        for i in range(2)
    ]
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    converted = tmp_path / "converted.jsonl"
    result = run_cli(
        runner,
        ["convert", "--input", str(source), "--output", str(converted)],
    )
    assert result.exit_code == 0
    lines = converted.read_text().splitlines()
    assert len(lines) == 8

    result = run_cli(runner, ["stats", "--dataset", str(converted)])
    assert result.exit_code == 0
    stats = json.loads(result.output)
    assert stats["items"] == 8
    assert stats["images"] == 4  # 2:1 question:image ratio
    assert stats["avg_question_length"] > 0


def test_simulate_flat_curve_without_corrections(runner, tmp_path):
    out = tmp_path / "sim"
    result = run_cli(
        runner,
        [
            "simulate",
            "--acc", "0.8",
            "--ecr", "0",
            "--eic", "0",
            "--trials", "10000",
            "--seed", "3",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    rows = (out / "simulated_sweep.csv").read_text().strip().splitlines()[1:]
    accuracies = {float(r.split(",")[4]) for r in rows}
    assert accuracies == {0.8}


def test_metrics_command(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    run_cli(
        runner,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "decompose_all",
            "--out", str(out),
        ],
    )
    out2 = tmp / "recount"
    result = run_cli(
        runner,
        [
            "metrics",
            "--log", str(out / "episodes.jsonl"),
            "--dataset", str(data),
            "--out", str(out2),
        ],
    )
    assert result.exit_code == 0
    report = json.loads((out2 / "metrics.json").read_text())
    original = json.loads((out / "metrics.json").read_text())
    for key in ("n", "accuracy_before", "accuracy_after", "e_cr", "e_ic"):
        assert report[key] == original[key]


def test_retry_budget_env_override(runner, workspace, monkeypatch):
    tmp, data, script = workspace
    monkeypatch.setenv("SECONDGUESS_RETRY_BUDGET", "not-a-number")
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "direct",
            "--out", str(tmp / "out"),
        ],
    )
    assert result.exit_code == 2
    assert "SECONDGUESS_RETRY_BUDGET" in result.output + result.stderr


def test_config_file_out_and_values_apply(runner, workspace, monkeypatch):
    tmp, data, script = workspace
    monkeypatch.chdir(tmp)
    config = tmp / "config.json"
    config.write_text(
        json.dumps(
            {
                "dataset": str(data),
                "mock_script": str(script),
                "mode": "selective",
                "tau": 1,  # an int is a valid float
                "out": str(tmp / "cfgout"),
            }
        )
    )
    result = run_cli(runner, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert (tmp / "cfgout" / "episodes.jsonl").exists()
    assert not (tmp / "out").exists()
    assert json.loads((tmp / "cfgout" / "metrics.json").read_text())["tau"] == 1.0
    # Flags win over the file.
    result = run_cli(
        runner, ["run", "--config", str(config), "--out", str(tmp / "flagout")]
    )
    assert result.exit_code == 0, result.output
    assert (tmp / "flagout" / "episodes.jsonl").exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": "abc"},
        {"tau": "0.3", "mode": "selective"},
        {"retry_budget": "x"},
        {"decomposer_prompt_style": "bogus"},
        {"concurrency": True},
        {"mode": "bogus"},
    ],
    ids=["seed", "tau", "retry_budget", "prompt_style", "bool_int", "mode"],
)
def test_config_value_type_exits_2(runner, workspace, bad):
    tmp, data, script = workspace
    out = tmp / "out"
    config = tmp / "config.json"
    base = {
        "dataset": str(data),
        "mock_script": str(script),
        "mode": "decompose_all",
        "out": str(out),
    }
    config.write_text(json.dumps({**base, **bad}))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2, result.output
    key = next(iter(bad))
    assert key in result.output + result.stderr
    assert not out.exists()  # rejected before any backend call


def test_run_oracle_mode_without_subqas_exits_3(runner, workspace):
    tmp, data, script = workspace
    result = runner.invoke(
        main,
        [
            "run",
            "--mode", "oracle_oracle",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--out", str(tmp / "out"),
        ],
    )
    assert result.exit_code == 3
    assert "sub_qas" in result.output + result.stderr


def test_metrics_malformed_dataset_exits_3(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    run_cli(
        runner,
        [
            "run",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--mode", "direct",
            "--out", str(out),
        ],
    )
    bad = tmp / "bad.jsonl"
    bad.write_text("5\n")
    result = runner.invoke(
        main,
        ["metrics", "--log", str(out / "episodes.jsonl"), "--dataset", str(bad),
         "--out", str(tmp / "recount")],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("grid", ["0.5,1.5", "-0.1,0.5", "0.5,nan"])
def test_simulate_tau_grid_out_of_range_exits_2(runner, tmp_path, grid):
    result = runner.invoke(
        main,
        ["simulate", "--acc", "0.8", "--ecr", "0.1", "--eic", "0.1",
         "--trials", "100", "--tau-grid", grid, "--out", str(tmp_path / "sim")],
    )
    assert result.exit_code == 2
    assert "tau-grid" in result.output + result.stderr


@pytest.mark.parametrize("content", [None, "{not json\n"], ids=["missing", "malformed"])
def test_run_bad_mock_script_exits_2(runner, workspace, content):
    tmp, data, _ = workspace
    script = tmp / "bad_script.jsonl"
    if content is not None:
        script.write_text(content)
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--out", str(tmp / "out")],
    )
    assert result.exit_code == 2
    assert "mock script" in result.output + result.stderr


def test_run_all_failed_exits_1_without_metrics(runner, workspace):
    tmp, data, _ = workspace
    script = tmp / "nomatch.jsonl"
    script.write_text(
        json.dumps(
            {
                "match": {"prompt_contains": "no prompt holds this", "role": "recomposer"},
                "response": {"text": "yes", "token_logprobs": [-0.1]},
            }
        )
        + "\n"
    )
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--mode", "direct", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "error: no scorable episodes" in result.output + result.stderr
    assert (out / "manifest.json").exists()
    assert not (out / "metrics.json").exists()
    assert json.loads((out / "manifest.json").read_text())["failures"] == 8


def test_sweep_run_keeps_exit_code(runner, tmp_path):
    specs = FOUR_EPISODE_SPECS[:2]
    data = tmp_path / "dataset.jsonl"
    dataset.save_dataset(spec_questions(specs), data)
    script = tmp_path / "script.jsonl"
    write_script(specs[:1], script)  # the second question's chain fails
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["sweep", "--dataset", str(data), "--mock-script", str(script),
         "--out", str(out)],
    )
    assert result.exit_code == 1
    assert (out / "sweep.csv").exists()


GOOD_EPISODE = {
    "id": "q1",
    "initial": {"text": "yes", "confidence": 0.9},
    "gate": "kept",
    "subquestion": None,
    "subanswer": None,
    "subanswer_provenance": None,
    "final": {"text": "yes", "confidence": 0.9},
    "correct_before": True,
    "correct_after": True,
    "malformed_subquestion": False,
    "retries": 0,
}


def bad_episode(**fields):
    return json.dumps({**GOOD_EPISODE, "id": "x", **fields})


# Line 2 of a log whose line 1 is a complete episode; "torn" is cut short.
MALFORMED_LINES = {
    "torn": '{"id": "x"',
    "missing_fields": '{"id": "x"}',
    "id_number": bad_episode(id=5),
    "initial_string": bad_episode(initial="yes"),
    "confidence_string": bad_episode(initial={"text": "", "confidence": "0.5"}),
    "confidence_bool": bad_episode(initial={"text": "", "confidence": True}),
    "confidence_high": bad_episode(initial={"text": "", "confidence": 1.5}),
    "gate_unknown": bad_episode(gate="maybe"),
    "correct_before_int": bad_episode(correct_before=1),
    "correct_after_null": bad_episode(correct_after=None),
}


def write_malformed_log(tmp, content=MALFORMED_LINES["torn"]):
    log = tmp / "torn.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n" + content + "\n")
    return log


@pytest.mark.parametrize(
    "command,content",
    [
        pytest.param(command, content, id=command if case == "torn" else f"{command}-{case}")
        for case, content in MALFORMED_LINES.items()
        for command in ("metrics", "sweep", "run")
    ],
)
def test_malformed_episode_log_exits_3(runner, workspace, command, content):
    tmp, data, script = workspace
    log = write_malformed_log(tmp, content)
    out = tmp / "out"
    if command == "run":
        out.mkdir()
        log = log.rename(out / "episodes.jsonl")
        args = ["run", "--dataset", str(data), "--mock-script", str(script),
                "--mode", "direct"]
    else:
        args = [command, "--log", str(log)]
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert errors == [errors[0]] and errors[0].startswith("error: ")
    assert f"{log}:2" in errors[0]
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["metrics", "--tau", "1.5"],
        ["metrics", "--tau", "-0.5"],
        ["metrics", "--tau", "nan"],
        ["sweep", "--percentiles", "150"],
        ["sweep", "--percentiles", "10,-1"],
        ["sweep", "--percentiles", "50,nan"],
    ],
    ids=["tau_high", "tau_negative", "tau_nan", "pct_high", "pct_negative", "pct_nan"],
)
def test_flag_out_of_range_exits_2(runner, tmp_path, flags):
    # A malformed log would exit 3, so exit 2 shows the flag is checked first.
    log = write_malformed_log(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, flags + ["--log", str(log), "--out", str(out)])
    assert result.exit_code == 2
    assert flags[1].lstrip("-") in result.output + result.stderr
    assert not (out / "metrics.json").exists()
