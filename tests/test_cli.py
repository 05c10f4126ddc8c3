import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (
    FOUR_EPISODE_SPECS,
    LONG_INTEGER,
    NESTED_TOO_DEEP,
    NOT_UTF8,
    QSpec,
    Reply,
    raw,
    spec_questions,
    write_script,
)
import secondguess
from secondguess import cli, dataset
from secondguess.backend import HTTPBackend
from secondguess.cli import main
from secondguess.evaluation import linear_fit
from secondguess.simulator import SimConfig, closed_form_decompose_all


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


@pytest.mark.parametrize(
    "content, where",
    [(NESTED_TOO_DEEP, ""), ('{\n"out": "x' + NOT_UTF8 + '"\n}\n', "{config}:2: "),
     ('{"seed": "' + LONG_INTEGER + '"}', "")],
    ids=["nested_too_deep", "not_utf8", "long_integer"],
)
def test_run_unreadable_config_exits_2(runner, tmp_path, content, where):
    config = tmp_path / "config.json"
    config.write_bytes(raw(content))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot read config file: " + where.format(config=config))


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
            "run",
            "--mode", f"oracle_{condition}",
            "--dataset", str(data),
            "--mock-script", str(script),
            "--seed", "7",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "metrics.json").read_text())
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
                "run",
                "--mode", "oracle_scrambled",
                "--dataset", str(data),
                "--mock-script", str(script),
                "--seed", "7",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        blobs.append((out / "episodes.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


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


WINOGROUND_LINE = json.dumps(
    {"id": "w0", "image_0": "a.png", "image_1": "b.png", "caption_0": "x", "caption_1": "y"}
)


@pytest.mark.parametrize(
    "line",
    ["5", "{not json", WINOGROUND_LINE.replace('"a.png"', "7"), NESTED_TOO_DEEP,
     WINOGROUND_LINE.replace('"y"', '"y\\uDC00"'),
     WINOGROUND_LINE.replace('"y"', '"y' + NOT_UTF8 + '"'),
     WINOGROUND_LINE.replace('"a.png"', f'"{LONG_INTEGER}"')],
    ids=["not_object", "torn", "image_number", "nested_too_deep", "unpaired_surrogate",
         "not_utf8", "long_integer"],
)
def test_convert_malformed_record_exits_3(runner, tmp_path, line):
    source = tmp_path / "winoground.jsonl"
    source.write_bytes(raw(WINOGROUND_LINE + "\n" + line + "\n"))
    converted = tmp_path / "converted.jsonl"
    result = runner.invoke(
        main, ["convert", "--input", str(source), "--output", str(converted)]
    )
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {source}:2: ")
    assert not converted.exists()


def test_simulate_prints_closed_form(runner, tmp_path):
    # c06's reference operating point, whose closed form is 0.8276.
    args = ["--acc", "0.7793", "--ecr", "0.5151", "--eic", "0.0839"]
    result = run_cli(
        runner, ["simulate", *args, "--trials", "1000", "--out", str(tmp_path / "sim")]
    )
    assert result.exit_code == 0
    expected = closed_form_decompose_all(SimConfig(0.7793, 0.5151, 0.0839))
    assert f"(closed form {expected:.4f})" in result.output
    assert "(closed form 0.8276)" in result.output


def write_metrics(run_dir, metrics):
    """A run directory holding ``metrics`` as its metrics.json text."""
    run_dir.mkdir()
    if metrics is not None:
        text = metrics if isinstance(metrics, str) else json.dumps(metrics)
        (run_dir / "metrics.json").write_bytes(raw(text))
    return str(run_dir)


# A metrics.json whose third line holds a byte that is not UTF-8.
METRICS_NOT_UTF8 = '{\n"surprisal": 2.0,\n"net_gain": 1.0, "x": "' + NOT_UTF8 + '"\n}\n'


def test_fit_matches_linear_fit(runner, tmp_path):
    points = [(0.5, 1.25), (1.7, 3.5), (4.0, 4.75)]
    runs = [
        write_metrics(tmp_path / f"run{i}", {"n": 8, "surprisal": x, "net_gain": y})
        for i, (x, y) in enumerate(points)
    ]
    # A run without a threshold has no surprisal and is left out.
    runs.append(write_metrics(tmp_path / "direct", {"surprisal": None, "net_gain": 0.0}))
    result = run_cli(runner, ["fit", *runs])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"runs": 3, **linear_fit(points)}


@pytest.mark.parametrize(
    "second",
    [
        {"surprisal": None, "net_gain": 2.0},
        {"surprisal": 1.0, "net_gain": 2.0},
        None,
        '{"surprisal": 2.0',
        [2.0, 1.0],
        {"surprisal": 2.0},
        {"surprisal": 2.0, "net_gain": "1.0"},
        {"surprisal": True, "net_gain": 1.0},
        NESTED_TOO_DEEP,
        METRICS_NOT_UTF8,
    ],
    ids=["one_surprisal", "equal_surprisal", "missing", "torn", "not_object",
         "no_net_gain", "net_gain_string", "surprisal_bool", "nested_too_deep", "not_utf8"],
)
def test_fit_exits_3(runner, tmp_path, second):
    first = write_metrics(tmp_path / "a", {"surprisal": 1.0, "net_gain": 1.0})
    result = runner.invoke(main, ["fit", first, write_metrics(tmp_path / "b", second)])
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    if second == METRICS_NOT_UTF8:
        assert f"{tmp_path / 'b' / 'metrics.json'}:3: byte 0xff is not UTF-8" in errors[0]


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
        {"retry_budget": 0},
    ],
    ids=["seed", "tau", "retry_budget", "prompt_style", "bool_int", "mode", "retry_budget_0"],
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


def script_line(**fields):
    """One mock script line whose match or response fields are replaced."""
    match = {"prompt_contains": "Short Answer:", "role": "recomposer"}
    response = {"text": "yes", "token_logprobs": [-0.1]}
    for key, value in fields.items():
        (match if key in match else response)[key] = value
    return json.dumps({"match": match, "response": response}, ensure_ascii=False) + "\n"


BAD_SCRIPTS = {
    "missing": None,
    "malformed": "{not json\n",
    "pattern_number": script_line(prompt_contains=5),
    "text_number": script_line(text=7),
    "role_typo": script_line(role="recomposr"),
    "logprobs_scalar": script_line(token_logprobs=-0.1),
    "logprob_string": script_line(token_logprobs=["-0.1"]),
    "logprob_bool": script_line(token_logprobs=[True]),
    "text_empty": script_line(text=""),
    "logprob_positive": script_line(token_logprobs=[0.5]),
    "logprob_nan": script_line(token_logprobs=[float("nan")]),
    # 400 digits: under the int-string conversion limit, beyond any float.
    "logprob_beyond_float": script_line(token_logprobs=[-(10 ** 399)]),
    # A float, then an integer that no float can be added to.
    "logprob_sum_beyond_float": script_line(token_logprobs=[-1e308, -(10 ** 399)]),
    "nested_too_deep": NESTED_TOO_DEEP + "\n",
    "not_utf8": script_line(text="yes" + NOT_UTF8),
}


@pytest.mark.parametrize("content", BAD_SCRIPTS.values(), ids=BAD_SCRIPTS.keys())
def test_run_bad_mock_script_exits_2(runner, workspace, content):
    tmp, data, _ = workspace
    script = tmp / "bad_script.jsonl"
    if content is not None:
        script.write_bytes(raw(content))
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--out", str(out)],
    )
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot read mock script: ")
    assert content is None or errors[0].startswith(f"error: cannot read mock script: {script}:1: ")
    assert not out.exists()


def test_tau_percentile_0_keeps_underflowed_confidence(runner, workspace):
    tmp, data, script = workspace
    # q1's initial answer: a log-prob of -800 underflows exp() to 0.0.
    lines = script.read_text().splitlines()
    initial = json.loads(lines[2])
    assert initial["match"]["prompt_contains"] == "Question: is the sky blue? Short Answer:"
    initial["response"]["token_logprobs"] = [-800.0]
    lines[2] = json.dumps(initial)
    script.write_text("\n".join(lines) + "\n")
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--mode", "selective", "--tau-percentile", "0", "--out", str(out)],
    )
    assert result.exit_code == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert episodes[0]["id"] == "q1"
    assert 0.0 < episodes[0]["initial"]["confidence"]
    assert all(ep["gate"] == "kept" for ep in episodes)
    result = runner.invoke(
        main,
        ["sweep", "--log", str(out / "episodes.jsonl"), "--percentiles", "0,100",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "0.0"  # eta at percentile 0
    assert rows[2].split(",")[3] == "1.0"


def test_sweep_percentile_0_gates_nothing(runner, tmp_path):
    log = tmp_path / "episodes.jsonl"
    smallest = {**GOOD_EPISODE, "id": "q0", "initial": {"text": "no", "confidence": 5e-324}}
    failed = {**GOOD_EPISODE, "id": "q2", "initial": {"text": "", "confidence": 0.0},
              "failed": True}
    log.write_text(
        "".join(json.dumps(ep) + "\n" for ep in (smallest, GOOD_EPISODE, failed))
    )
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["sweep", "--log", str(log), "--percentiles", "0,50", "--out", str(out)]
    )
    assert result.exit_code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["0.0", "0.5"]


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


def test_tau_percentile_without_initial_answers_writes_failed_records(runner, workspace):
    tmp, data, _ = workspace
    script = tmp / "decomposer_only.jsonl"
    script.write_text(
        json.dumps(
            {
                "match": {"prompt_contains": "Perception Question:", "role": "decomposer"},
                "response": {"text": "is it lit?", "token_logprobs": [-0.1]},
            }
        )
        + "\n"
    )
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--mode", "selective", "--tau-percentile", "50", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "error: no scorable episodes" in result.output + result.stderr
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert len(episodes) == 8 and all(ep["failed"] for ep in episodes)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == 8
    assert manifest["resolved_tau"] is None
    assert not (out / "metrics.json").exists()


def test_tau_percentile_onto_complete_log_makes_no_call(runner, workspace):
    tmp, data, script = workspace
    out = tmp / "out"
    args = ["run", "--dataset", str(data), "--mock-script", str(script),
            "--mode", "selective", "--tau-percentile", "50", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    log = (out / "episodes.jsonl").read_bytes()
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert (out / "episodes.jsonl").read_bytes() == log
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["backend_calls"] == manifest["new_episodes"] == 0
    assert manifest["episodes"] == 8
    assert json.loads((out / "metrics.json").read_text())["tau"] is None


def test_resumed_run_counts_failures_of_the_whole_log(runner, tmp_path):
    specs = FOUR_EPISODE_SPECS[:2]
    data = tmp_path / "dataset.jsonl"
    dataset.save_dataset(spec_questions(specs), data)
    script = tmp_path / "script.jsonl"
    write_script(specs[:1], script)  # the second question's chain fails
    out = tmp_path / "out"
    args = ["run", "--dataset", str(data), "--mock-script", str(script),
            "--mode", "direct", "--out", str(out)]
    for _ in range(2):  # the second run resumes onto the complete log
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "run complete: 2 episodes (1 failures)" in result.output
        assert json.loads((out / "manifest.json").read_text())["failures"] == 1
        assert json.loads((out / "metrics.json").read_text())["failures"] == 1


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
    return json.dumps({**GOOD_EPISODE, "id": "x", **fields}, ensure_ascii=False)


# Line 2 of a log whose line 1 is a complete episode; "torn" is cut short.
MALFORMED_LINES = {
    "torn": '{"id": "x"',
    "missing_fields": '{"id": "x"}',
    "id_number": bad_episode(id=5),
    "initial_string": bad_episode(initial="yes"),
    "confidence_string": bad_episode(initial={"text": "", "confidence": "0.5"}),
    "confidence_bool": bad_episode(initial={"text": "", "confidence": True}),
    "confidence_high": bad_episode(initial={"text": "", "confidence": 1.5}),
    "confidence_zero": bad_episode(initial={"text": "", "confidence": 0.0}),
    "gate_unknown": bad_episode(gate="maybe"),
    "correct_before_int": bad_episode(correct_before=1),
    "correct_after_null": bad_episode(correct_after=None),
    "failed_string": bad_episode(failed="false"),
    "failed_int": bad_episode(failed=1),
    "nested_too_deep": NESTED_TOO_DEEP,
    "not_utf8": bad_episode(id="x" + NOT_UTF8),
    "long_integer": bad_episode(n=LONG_INTEGER),
}


def write_malformed_log(tmp, content=MALFORMED_LINES["torn"]):
    log = tmp / "torn.jsonl"
    log.write_bytes(raw(json.dumps(GOOD_EPISODE) + "\n" + content + "\n"))
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


@pytest.mark.parametrize("command", ["metrics", "sweep", "run"])
def test_duplicate_episode_id_exits_3(runner, workspace, command):
    """A log that holds one record twice, such as two logs concatenated,
    names the second occurrence."""
    tmp, data, script = workspace
    out = tmp / "out"
    out.mkdir()
    log = out / "episodes.jsonl"
    log.write_text("".join(json.dumps({**GOOD_EPISODE, "id": i}) + "\n" for i in "aba"))
    if command == "run":
        args = ["run", "--dataset", str(data), "--mock-script", str(script),
                "--mode", "direct"]
    else:
        args = [command, "--log", str(log)]
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr.splitlines() == [f"error: {log}:3: duplicate id 'a'"]
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("command", ["metrics", "sweep", "convert"])
def test_unreadable_input_exits_3(runner, tmp_path, command):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    out = tmp_path / "out"
    if command == "convert":
        args = ["convert", "--input", str(directory), "--output", str(out / "x.jsonl")]
    else:
        args = [command, "--log", str(directory), "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize(
    "url", ["notaurl", "ftp://x", "http://", "http://u:pw@host", "http://host:99999"]
)
@pytest.mark.parametrize("flag", ["--recomposer-url", "--decomposer-url"])
def test_run_malformed_backend_url_exits_2(runner, workspace, flag, url):
    tmp, data, _ = workspace
    # A well-formed recomposer URL is never dialled: the run stops first.
    urls = {"--recomposer-url": "http://localhost:9", flag: url}
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), *(x for kv in urls.items() for x in kv),
         "--out", str(out)],
    )
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith("error: backend URL ") and repr(url) in errors[0]
    assert not out.exists()


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


def answer_from_prompt(req):
    """A valid generation payload that depends only on the prompt."""
    digest = hashlib.sha256(req["prompt"].encode("utf-8")).digest()
    if req["prompt"].endswith("Perception Question:"):
        text = f"is the thing number {digest[0] % 5} visible?"
    else:
        text = ("yes", "no")[digest[0] % 2]
    logprob = -(digest[1] + 1) / 256.0
    return {"text": text, "token_logprobs": [logprob], "cumulative_logprob": logprob}


def test_run_over_http_keeps_one_connection_per_worker(runner, workspace, loopback):
    tmp, data, _ = workspace
    logs = []
    for concurrency in (1, 2):
        server = loopback(respond=answer_from_prompt)
        out = tmp / f"out{concurrency}"
        result = run_cli(
            runner,
            [
                "run",
                "--dataset", str(data),
                "--recomposer-url", server.url,
                "--mode", "decompose_all",
                "--concurrency", str(concurrency),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert 1 <= server.connections <= concurrency
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["backend_calls"] == len(server.received) == 8 * 4
        logs.append((out / "episodes.jsonl").read_bytes())
    assert logs[0] == logs[1]


class NoSleepHTTPBackend(HTTPBackend):
    """An HTTPBackend that does not sleep between retries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, sleep=lambda _: None, **kwargs)


def replies_at(replies):
    """A LoopbackServer ``respond``: the Reply that ``replies`` holds for a
    POST's number (from 0), else answer_from_prompt's payload."""
    posts = itertools.count()
    return lambda req: replies.get(next(posts)) or answer_from_prompt(req)


def test_retried_transport_faults_leave_the_log_unchanged(
    runner, workspace, loopback, monkeypatch
):
    """A dropped connection and a 503 are each absorbed by a retry: the run
    writes the fault-free run's episodes.jsonl and metrics.json, and its
    manifest counts the two retries."""
    monkeypatch.setattr(cli, "HTTPBackend", NoSleepHTTPBackend)
    tmp, data, _ = workspace
    # At concurrency 1 POST 0 is the run's first, on a fresh connection; a
    # kept-alive connection that the server drops is reopened once without
    # a retry, so the drop goes there.
    runs = []
    for name, replies in (("clean", {}), ("faulty", {0: Reply(None), 9: Reply(503)})):
        server = loopback(respond=replies_at(replies))
        out = tmp / name
        result = run_cli(
            runner,
            [
                "run",
                "--dataset", str(data),
                "--recomposer-url", server.url,
                "--mode", "decompose_all",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["backend_calls"] == 8 * 4
        assert len(server.received) == 8 * 4 + len(replies)
        assert manifest["retries"] == len(replies)
        runs.append([(out / f).read_bytes() for f in ("episodes.jsonl", "metrics.json")])
    assert runs[0] == runs[1]


def test_run_over_http_unpaired_surrogate_reply_fails_its_question(
    runner, workspace, loopback
):
    """A reply whose text JSON-escapes an unpaired surrogate breaks the
    protocol: it is not retried, its question gets a failed record, and the
    run writes the whole log and exits 1."""
    tmp, data, _ = workspace
    reply = {"text": "ye\ud800s", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    # POST 0 is q1's initial answer; a failed initial ends q1's chain.
    server = loopback(respond=replies_at({0: reply}))
    out = tmp / "out"
    result = run_cli(
        runner,
        [
            "run",
            "--dataset", str(data),
            "--recomposer-url", server.url,
            "--mode", "decompose_all",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 1, result.output
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert [ep["id"] for ep in episodes] == [f"q{i}" for i in range(1, 9)]
    assert [ep.get("failed", False) for ep in episodes] == [True] + [False] * 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["backend_calls"] == len(server.received) == 8 * 4 - 3
    assert manifest["retries"] == 0


def test_run_mock_script_unpaired_surrogate_exits_2(runner, workspace):
    tmp, data, script = workspace
    lines = script.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["response"]["text"] = "ye\ud800s"
    lines[1] = json.dumps(entry)
    script.write_text("\n".join(lines) + "\n")
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script), "--out", str(out)],
    )
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot read mock script: {script}:2: ")
    assert not out.exists()


def test_import_loads_no_http_stack_or_blas_threads():
    # OpenBLAS takes its thread count from the first of these that is set.
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(secondguess.__file__).parents[1])
    code = (
        "import os, sys\n"
        "import secondguess.cli\n"
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))\n"
        "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["[]", "1"]


@pytest.mark.parametrize(
    "args, code",
    [
        (["--log", "{tmp}/missing.jsonl"], 3),
    ],
    ids=["missing_log"],
)
def test_sweep_failing_early_leaves_no_out(runner, workspace, args, code):
    tmp, data, _ = workspace
    out = tmp / "out"
    args = [arg.format(data=data, tmp=tmp) for arg in args]
    result = runner.invoke(main, ["sweep", *args, "--out", str(out)])
    assert result.exit_code == code
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"answers": []}, "has no ground-truth answers"),
        ({"qtype": "colour"}, "has unknown qtype 'colour'"),
        ({"qtype": "boolean", "answers": ["maybe"]}, "has non-boolean answer 'maybe'"),
        ({"question": ""}, "field 'question' must not be empty"),
        ({"sub_qas": [["", "yes"]]}, "pairs with a non-empty question"),
        ({"image": "b" + NOT_UTF8}, "byte 0xff is not UTF-8"),
        ({"image": LONG_INTEGER}, "invalid JSON (Exceeds the limit"),
    ],
    ids=["no_answers", "unknown_qtype", "non_boolean_answer", "empty_question",
         "empty_sub_question", "not_utf8", "long_integer"],
)
def test_stats_invalid_question_names_line(runner, tmp_path, fields, message):
    good = {"id": "a", "image": "a.jpg", "question": "is it?", "answers": ["yes"]}
    data = tmp_path / "dataset.jsonl"
    bad = json.dumps({**good, "id": "b", **fields}, ensure_ascii=False)
    data.write_bytes(raw(json.dumps(good) + "\n" + bad + "\n"))
    result = runner.invoke(main, ["stats", "--dataset", str(data)])
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {data}:2: ") and message in errors[0]


def test_run_empty_question_exits_3_before_out(runner, workspace):
    """An empty question would reach a prompt template mid-run; the dataset
    check names its line before out/ exists."""
    tmp, _, script = workspace
    good = {"id": "a", "image": "a.jpg", "question": "is it?", "answers": ["yes"]}
    data = tmp / "empty.jsonl"
    data.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", "question": ""}) + "\n")
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script), "--out", str(out)],
    )
    assert result.exit_code == 3
    assert result.stderr.startswith(f"error: {data}:2: ")
    assert not out.exists()


SURROGATE = "a string holds the unpaired surrogate '\\ud800'"


@pytest.mark.parametrize(
    "field, value, message",
    [("id", "b\\ud800", SURROGATE), ("answers", "b\\ud800", SURROGATE),
     ("id", "b" + NOT_UTF8, "byte 0xff is not UTF-8"),
     ("image", LONG_INTEGER, "invalid JSON (Exceeds the limit")],
    ids=["surrogate_id", "surrogate_answers", "not_utf8", "long_integer"],
)
def test_run_unreadable_dataset_line_exits_3_before_out(runner, workspace, field, value, message):
    """A string that UTF-8 cannot encode would crash the log write after
    every call was made; it and a line that cannot be read are named before
    out/ exists."""
    tmp, _, script = workspace
    good = {"id": "a", "image": "a.jpg", "question": "is it?", "answers": ["yes"]}
    bad = {**good, "id": "b", field: ["MARK"] if field == "answers" else "MARK"}
    bad_line = json.dumps(bad, ensure_ascii=False).replace("MARK", value)
    data = tmp / "unreadable.jsonl"
    data.write_bytes(raw(json.dumps(good) + "\n" + bad_line + "\n"))
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script), "--mode", "direct",
         "--out", str(out)],
    )
    assert result.exit_code == 3
    assert result.stderr.startswith(f"error: {data}:2: {message}")
    assert not out.exists()


def test_metrics_missing_log_exits_3_before_out(runner, workspace):
    tmp, data, _ = workspace
    out = tmp / "out"
    log = tmp / "missing.jsonl"
    result = runner.invoke(
        main, ["metrics", "--log", str(log), "--dataset", str(data), "--out", str(out)]
    )
    assert result.exit_code == 3
    assert result.stderr == f"error: episode log not found: {log}\n"
    assert not out.exists()


# Every command and its options. `run` is the one command that runs the
# chain; `metrics` and `sweep` only read a log.
CLI_SURFACE = {
    "convert": ["--input", "--output"],
    "fit": [],
    "metrics": ["--dataset", "--log", "--out", "--tau"],
    "run": ["--concurrency", "--config", "--dataset", "--decomposer-url",
            "--mock-script", "--mode", "--out", "--recomposer-url", "--scoring",
            "--seed", "--tau", "--tau-percentile"],
    "simulate": ["--acc", "--ecr", "--eic", "--out", "--seed", "--tau-grid", "--trials"],
    "stats": ["--dataset"],
    "sweep": ["--log", "--out", "--percentiles"],
}


def command_options(name) -> list:
    return sorted(o for p in main.commands[name].params if p.param_type_name == "option"
                  for o in p.opts)


def test_cli_surface(runner, tmp_path):
    assert sorted(main.commands) == sorted(CLI_SURFACE)
    for name, options in CLI_SURFACE.items():
        assert command_options(name) == options, name
    # sweep takes no run flag, not even one it would ignore.
    log = tmp_path / "episodes.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n")
    result = runner.invoke(
        main, ["sweep", "--log", str(log), "--tau", "0.3", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2
    assert "--tau" in result.stderr
    assert not (tmp_path / "out").exists()


def readme_cli_examples() -> list:
    """The ``secondguess`` command lines of the README's CLI block, with
    ``\\`` continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("secondguess ")]


def test_readme_cli_examples_use_real_options():
    examples = readme_cli_examples()
    assert {args[0] for args in examples} == set(CLI_SURFACE)
    for command, *args in examples:
        options = command_options(command)
        for arg in args:
            if arg.startswith("--"):
                assert arg in options, f"README: {command} has no {arg}"
