import ast
import builtins
import csv
import errno
import gc
import hashlib
import itertools
import json
import logging
import os
import pickle
import re
import shlex
import shutil
import subprocess
import sys
import threading
import zlib
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_EPISODE_SPECS,
    LONG_INTEGER,
    NESTED_TOO_DEEP,
    NOT_UTF8,
    CommandRunner,
    QSpec,
    Reply,
    raw,
    spec_questions,
    trials_to_episodes,
    write_script,
)
import secondguess
from secondguess import cli, dataset, evaluation, pipeline, prompts
from secondguess.backend import DEFAULT_RETRY_ATTEMPTS, BackendError, HTTPBackend, MockBackend
from secondguess.cli import main
from secondguess.evaluation import linear_fit
from secondguess.simulator import SimConfig, closed_form_decompose_all, generate_trials


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
    assert manifest["skipped_missing_oracle"] == 0  # no oracle mode skips a question


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
                sub_qas=(
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
    converted = tmp_path / "new" / "converted.jsonl"  # convert makes the directory
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


@pytest.mark.parametrize("field_at, json_at", [(2, 5), (256, 257)], ids=["one_chunk", "two_chunks"])
def test_convert_names_a_field_error_before_later_bad_json(runner, tmp_path, field_at, json_at):
    """A record with a bad field is named before a later line that is no
    JSON: in one chunk, and on the last line of a chunk before the next
    chunk's first."""
    source = tmp_path / "winoground.jsonl"
    lines = [WINOGROUND_LINE.replace('"w0"', f'"w{i}"') for i in range(300)]
    lines[field_at - 1] = WINOGROUND_LINE.replace('"a.png"', "7")
    lines[json_at - 1] = "{not json"
    source.write_text("".join(line + "\n" for line in lines))
    converted = tmp_path / "converted.jsonl"
    result = runner.invoke(
        main, ["convert", "--input", str(source), "--output", str(converted)]
    )
    assert result.exit_code == 3
    assert result.stderr == (
        f"error: {source}:{field_at}: winoground field 'image_0' must be a string\n"
    )
    assert not converted.exists()


@pytest.mark.parametrize("again_at", [3, 300], ids=["one_chunk", "two_chunks"])
def test_convert_repeated_record_id_exits_3(runner, tmp_path, caplog, again_at):
    """Two records with one id would give questions with one id, which the
    dataset loader rejects: convert names the second record, before any
    caption warning or output."""
    source = tmp_path / "winoground.jsonl"
    lines = [WINOGROUND_LINE.replace('"w0"', f'"w{i}"') for i in range(again_at)]
    lines[0] = WINOGROUND_LINE.replace('"y"', '"x"')  # identical captions warn
    lines[again_at - 1] = WINOGROUND_LINE
    source.write_text("".join(line + "\n" for line in lines))
    converted = tmp_path / "converted.jsonl"
    result = runner.invoke(
        main, ["convert", "--input", str(source), "--output", str(converted)]
    )
    assert result.exit_code == 3
    assert result.stderr == f"error: {source}:{again_at}: duplicate id 'w0'\n"
    assert not caplog.records
    assert not converted.exists()


def test_convert_warns_once_per_record_with_identical_captions(runner, tmp_path, caplog):
    """A record whose two captions are one caption labels a pair both yes
    and no: it is converted all the same, and logged once as a WARNING of
    ``secondguess.dataset``."""
    source = tmp_path / "winoground.jsonl"
    lines = [WINOGROUND_LINE.replace('"w0"', f'"w{i}"') for i in range(5)]
    for i in (1, 3, 4):
        lines[i] = lines[i].replace('"y"', '"x"')
    source.write_text("".join(line + "\n" for line in lines))
    converted = tmp_path / "converted.jsonl"
    with caplog.at_level(logging.WARNING):
        result = runner.invoke(
            main, ["convert", "--input", str(source), "--output", str(converted)]
        )
    assert result.exit_code == 0, result.output
    assert "into 20 questions (3 caption warnings)" in result.stdout
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("secondguess.dataset", logging.WARNING,
         f"winoground record w{i} has identical captions; labels conflict")
        for i in (1, 3, 4)
    ]
    assert len(converted.read_text().splitlines()) == 20


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


def test_fit_names_a_missing_file_and_a_missing_key(runner, tmp_path):
    first = write_metrics(tmp_path / "a", {"surprisal": 1.0, "net_gain": 1.0})
    missing = tmp_path / "b" / "metrics.json"
    no_key = write_metrics(tmp_path / "c", {"net_gain": 1.0})
    for run_dir, problem in (
        (write_metrics(tmp_path / "b", None),
         f"[Errno {errno.ENOENT}] No such file or directory: {str(missing)!r}"),
        (no_key, "missing key 'surprisal'"),
    ):
        result = runner.invoke(main, ["fit", first, run_dir])
        assert result.exit_code == 3
        path = Path(run_dir) / "metrics.json"
        assert result.stderr == f"error: cannot read surprisal and net_gain from {path}: {problem}\n"


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
        {"scoring": "bogus"},
    ],
    ids=["seed", "tau", "retry_budget", "prompt_style", "bool_int", "mode", "retry_budget_0",
         "scoring"],
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


@pytest.mark.parametrize("grid", ["0.5,1.5", "-0.1,0.5", "0.5,nan", ""])
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
    # eta at percentile 0; the log kept every answer, so it answers no
    # percentile-100 point.
    assert [row.split(",")[3] for row in rows[1:]] == ["0.0"]


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
    # The log kept 5e-324, the tau at percentile 50, so only percentile 0 is
    # left.
    assert [row.split(",")[3] for row in rows[1:]] == ["0.0"]


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


def test_run_on_an_empty_dataset_exits_3_as_metrics_does(runner, workspace):
    """A run with no episode has none that failed: it exits 3, as
    ``metrics`` and ``sweep`` do on the log it leaves, not 1."""
    tmp, _, script = workspace
    data = tmp / "empty.jsonl"
    data.write_bytes(b"")
    out = tmp / "out"
    result = runner.invoke(
        main,
        ["run", "--dataset", str(data), "--mock-script", str(script),
         "--mode", "direct", "--out", str(out)],
    )
    assert result.exit_code == 3
    assert "error: no scorable episodes" in result.output + result.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["episodes"], manifest["failures"]) == (0, 0)
    log = out / "episodes.jsonl"
    assert log.read_bytes() == b""
    for command in ("metrics", "sweep"):
        result = runner.invoke(main, [command, "--log", str(log), "--out", str(tmp / command)])
        assert result.exit_code == 3
        assert result.stderr == "error: no scorable episodes\n"


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


def test_tau_percentile_onto_a_partial_log_exits_2_with_no_call(runner, workspace, monkeypatch):
    """A percentile tau run onto a log that holds some of its questions, as
    a crash leaves it, would resolve tau over the rest alone: it exits 2
    before any call, with the log and the manifest as they were."""
    tmp, data, script = workspace
    out = tmp / "out"
    args = ["run", "--dataset", str(data), "--mock-script", str(script),
            "--mode", "selective", "--tau-percentile", "50", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    log = out / "episodes.jsonl"
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:3]))
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, request, role: calls.append(1))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: {log} holds 3 episodes: a tau_percentile run cannot resume it with 5 "
        "questions still to run; remove it to run them all again\n"
    )
    assert calls == []
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_run_onto_a_log_of_another_config_exits_2_with_no_call(runner, workspace, monkeypatch):
    """`run --mode direct` onto the first 5 records of a selective log would
    append 3 records gated at 0 to 5 gated at the 50th percentile: it exits
    2 naming the keys that differ, before any call, with every file in out/
    as it was."""
    tmp, data, script = workspace
    out = tmp / "out"
    common = ["run", "--dataset", str(data), "--mock-script", str(script), "--out", str(out)]
    assert runner.invoke(main, [*common, "--mode", "selective", "--tau-percentile", "50"]
                         ).exit_code == 0
    log = out / "episodes.jsonl"
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:5]))
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, request, role: calls.append(1))
    result = runner.invoke(main, [*common, "--mode", "direct"])
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: {log} holds episodes of another config: mode, tau_percentile differ from "
        f"{out / 'manifest.json'}; use another --out, or remove the log to run every "
        "question again\n"
    )
    assert calls == []
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_a_resume_may_change_out_concurrency_retry_budget_and_dataset(runner, workspace):
    """A log moved to another out/ and resumed over a larger dataset file,
    on four threads and with another retry budget, ends as the log of one
    run over the whole dataset."""
    tmp, data, script = workspace
    half = tmp / "half.jsonl"
    dataset.save_dataset(dataset.load_dataset(data)[:4], half)
    settings = ["--mock-script", str(script), "--mode", "selective", "--tau", "0.3"]
    for name, questions in (("whole", data), ("half", half)):
        run_cli(runner, ["run", "--dataset", str(questions), *settings, "--out", str(tmp / name)])
    shutil.copytree(tmp / "half", tmp / "moved")
    config = tmp / "config.json"
    config.write_text(json.dumps({"retry_budget": DEFAULT_RETRY_ATTEMPTS + 1}))
    result = runner.invoke(main, ["run", "--config", str(config), "--dataset", str(data),
                                  *settings, "--concurrency", "4", "--out", str(tmp / "moved")])
    assert result.exit_code == 0, result.stderr
    assert ((tmp / "moved" / "episodes.jsonl").read_bytes()
            == (tmp / "whole" / "episodes.jsonl").read_bytes())


@pytest.mark.parametrize("manifest, problem", [
    ("{", "cannot read the manifest {manifest}: Expecting property name"),
    ("[]", "{manifest} holds no config object"),
    ('{"config": "direct"}', "{manifest} holds no config object"),
], ids=["not_json", "no_object", "config_no_object"])
def test_run_onto_a_log_whose_manifest_is_unreadable_exits_2(runner, workspace, monkeypatch,
                                                            manifest, problem):
    tmp, data, script = workspace
    out = tmp / "out"
    args = ["run", "--dataset", str(data), "--mock-script", str(script), "--mode", "direct",
            "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    (out / "manifest.json").write_text(manifest)
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, request, role: calls.append(1))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: " + problem.format(manifest=out / "manifest.json"))
    assert calls == []
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_an_empty_log_binds_no_config(runner, workspace):
    """A log that holds nothing, as a run over an empty dataset leaves it,
    is resumed under any config, and the manifest records the new one."""
    tmp, data, script = workspace
    out = tmp / "out"
    empty = tmp / "empty.jsonl"
    empty.write_text("")
    result = runner.invoke(main, ["run", "--dataset", str(empty), "--mock-script", str(script),
                                  "--mode", "direct", "--out", str(out)])
    assert result.exit_code == 3
    assert (out / "episodes.jsonl").read_bytes() == b""
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mock-script", str(script),
                                  "--mode", "decompose_all", "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    assert json.loads((out / "manifest.json").read_text())["config"]["mode"] == "decompose_all"


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


def metrics_outputs(runner, log, out):
    """The bytes of metrics.json and sweep.csv that `metrics --log` writes."""
    result = runner.invoke(main, ["metrics", "--log", str(log), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return (out / "metrics.json").read_bytes(), (out / "sweep.csv").read_bytes()


def test_run_metrics_are_metrics_of_its_log(runner, workspace):
    """A fresh run and one that resumes it write the metrics.json that
    `metrics --log` computes from a copy of the log, and a run directory
    holds only the run's three files: no cache of the log's columns."""
    tmp, data, script = workspace
    half = tmp / "half.jsonl"
    dataset.save_dataset(dataset.load_dataset(data)[:4], half)
    out = tmp / "out"
    for number, questions in enumerate((half, data)):
        result = run_cli(runner, ["run", "--dataset", str(questions), "--mock-script",
                                  str(script), "--mode", "selective", "--tau", "0.3",
                                  "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sorted(os.listdir(out)) == ["episodes.jsonl", "manifest.json", "metrics.json"]
        copy = tmp / f"copy{number}"
        copy.mkdir()
        shutil.copy(out / "episodes.jsonl", copy)
        recount = run_cli(runner, ["metrics", "--log", str(copy / "episodes.jsonl"),
                                   "--dataset", str(questions), "--tau", "0.3",
                                   "--out", str(copy)])
        assert recount.exit_code == 0, recount.output
        assert (copy / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    assert json.loads((out / "metrics.json").read_text())["n"] == 8


def decompose_all_log(path, trials=400):
    """A decompose-all episode log of ``trials`` simulated questions."""
    cfg = SimConfig(0.7, 0.5, 0.1, trials=trials, seed=5)
    episodes = trials_to_episodes(generate_trials(cfg))
    path.write_text("".join(json.dumps(ep) + "\n" for ep in episodes))
    return path


def sweep_rows(runner, log, out, *args):
    """The rows of the sweep.csv that `sweep --log` writes, as dicts of floats."""
    assert run_cli(runner, ["sweep", "--log", str(log), *args, "--out", str(out)]).exit_code == 0
    return csv_rows(out / "sweep.csv")


def csv_rows(path):
    """The rows of a sweep CSV, as dicts of floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def metrics_at(runner, log, tau, out):
    """The metrics.json that `metrics --log --tau` writes."""
    result = run_cli(runner, ["metrics", "--log", str(log), "--tau", repr(tau), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return json.loads((out / "metrics.json").read_text())


def test_metrics_at_tau_is_the_sweep_row(runner, tmp_path):
    """`metrics --tau` replays the gate at tau: on a decompose-all log it
    reports exactly the eta and accuracy of `sweep`'s row at that tau."""
    log = decompose_all_log(tmp_path / "episodes.jsonl")
    rows = sweep_rows(runner, log, tmp_path / "sweep")
    assert [row["percentile"] for row in rows] == cli.DEFAULT_PERCENTILES
    for row in rows:
        report = metrics_at(runner, log, row["tau"], tmp_path / "metrics")
        assert (report["tau"], report["eta"]) == (row["tau"], row["eta"])
        assert report["accuracy_after"] == row["accuracy"]
        assert report["net_gain"] == (row["accuracy"] - report["accuracy_before"]) * 100.0
    assert rows[0]["eta"] == 0.0 and rows[-1]["eta"] == 1.0


@st.composite
def scripted_specs(draw):
    """Up to 30 fully scripted questions, each initial confidence one of a
    few values, which tie across a nearest rank, or any in (0, 1]."""
    answer = st.sampled_from(["yes", "no"])
    confidence = st.one_of(st.sampled_from([0.1, 0.3, 0.5, 1.0]),
                           st.floats(min_value=1e-6, max_value=1.0))
    return [
        QSpec(f"q{i}", f"is item {i} red?", draw(answer), draw(answer), draw(confidence),
              f"is part {i} lit?", draw(answer), draw(answer))
        for i in range(draw(st.integers(1, 30)))
    ]


@pytest.mark.parametrize("concurrency", [1, 4])
@settings(max_examples=25, deadline=None)
@given(specs=scripted_specs())
def test_sweep_predicts_the_selective_run(tmp_path_factory, concurrency, specs):
    """Each row of `sweep` over a decompose-all run is what `run --mode
    selective` does over the same questions, at the row's percentile
    (--tau-percentile) or at its tau (--tau): it resolves the row's tau, and
    its metrics.json holds the row's eta and accuracy, exactly."""
    tmp = tmp_path_factory.mktemp("predict")
    runner = CommandRunner()
    data, script = tmp / "data.jsonl", tmp / "script.jsonl"
    dataset.save_dataset(spec_questions(specs), data)
    write_script(specs, script)
    run = ["run", "--dataset", str(data), "--mock-script", str(script),
           "--concurrency", str(concurrency)]
    assert run_cli(runner, [*run, "--mode", "decompose_all", "--out", str(tmp / "all")]).exit_code == 0
    rows = sweep_rows(runner, tmp / "all" / "episodes.jsonl", tmp / "sweep",
                      "--percentiles", "0,10,33,50,77,100")
    assert [row["percentile"] for row in rows] == [0.0, 10.0, 33.0, 50.0, 77.0, 100.0]
    thresholds = (("--tau-percentile", "percentile"), ("--tau", "tau"))
    for index, (row, (flag, key)) in enumerate(itertools.product(rows, thresholds)):
        out = tmp / f"selective{index}"
        result = run_cli(runner, [*run, "--mode", "selective", flag, repr(row[key]),
                                  "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["resolved_tau"] == row["tau"]
        report = json.loads((out / "metrics.json").read_text())
        assert (report["eta"], report["accuracy_after"]) == (row["eta"], row["accuracy"])


def test_fit_regresses_the_net_gain_at_each_tau(runner, tmp_path):
    log = decompose_all_log(tmp_path / "episodes.jsonl")
    rows = sweep_rows(runner, log, tmp_path / "sweep")
    picked = [row for row in rows if row["percentile"] in (25.0, 50.0, 75.0)]
    run_dirs, points = [], []
    for number, row in enumerate(picked):
        run_dirs.append(tmp_path / f"run{number}")
        before = metrics_at(runner, log, row["tau"], run_dirs[-1])["accuracy_before"]
        points.append((row["surprisal"], (row["accuracy"] - before) * 100.0))
    result = run_cli(runner, ["fit", *map(str, run_dirs)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"runs": 3, **linear_fit(points)}
    assert linear_fit(points)["slope"] != 0.0


def test_metrics_refuses_a_tau_the_log_cannot_answer(runner, workspace):
    """A log answers tau iff it kept no valid answer at or below tau: a
    direct log only tau = 0, a selective log at 0.3 every tau up to 0.3."""
    tmp, data, script = workspace
    logs = {}
    for mode, flags in (("direct", []), ("selective", ["--tau", "0.3"])):
        out = tmp / mode
        run_cli(runner, ["run", "--dataset", str(data), "--mock-script", str(script),
                         "--mode", mode, *flags, "--out", str(out)])
        logs[mode] = out / "episodes.jsonl"
    # q3 (confidence 0.2) is the first answer at or below 0.5, and q8 (0.6)
    # the first the selective run kept at or below 0.6.
    for mode, tau, first in (("direct", 0.5, "q3"), ("selective", 0.6, "q8")):
        out = tmp / f"{mode}-at-{tau}"
        result = runner.invoke(main, ["metrics", "--log", str(logs[mode]), "--tau", str(tau),
                                      "--out", str(out)])
        assert result.exit_code == 3
        assert result.stderr == f"error: tau {tau} gates episode {first!r}, which the log kept\n"
        assert not out.exists()
    assert metrics_at(runner, logs["direct"], 0.0, tmp / "direct-at-0")["eta"] == 0.0
    for tau in (0.0, 0.15, 0.2, 0.25, 0.3):
        report = metrics_at(runner, logs["selective"], tau, tmp / f"selective-at-{tau}")
        assert report["tau"] == tau


def test_sweep_writes_only_the_points_a_log_answers(runner, tmp_path):
    """A sweep point is left out where `metrics --tau` refuses its tau. On
    the direct log of FOUR_EPISODE_SPECS (confidences 0.9, 0.8, 0.2, 0.7)
    only percentile 0 is left, in `sweep` and in the sweep.csv of `metrics`;
    a sweep with no point left exits 3 with the message of `metrics --tau`
    at its first point."""
    data, script, run = tmp_path / "data.jsonl", tmp_path / "script.jsonl", tmp_path / "run"
    dataset.save_dataset(spec_questions(FOUR_EPISODE_SPECS), data)
    write_script(FOUR_EPISODE_SPECS, script)
    run_cli(runner, ["run", "--dataset", str(data), "--mock-script", str(script),
                     "--mode", "direct", "--out", str(run)])
    log = run / "episodes.jsonl"
    rows = sweep_rows(runner, log, tmp_path / "sweep", "--percentiles", "0,50,100")
    assert [(row["percentile"], row["tau"], row["eta"]) for row in rows] == [(0.0, 0.0, 0.0)]
    assert run_cli(runner, ["metrics", "--log", str(log), "--out", str(run)]).exit_code == 0
    assert [row["percentile"] for row in csv_rows(run / "sweep.csv")] == [0.0]
    refused = runner.invoke(main, ["metrics", "--log", str(log), "--tau", "0.7",
                                   "--out", str(tmp_path / "metrics")])
    out = tmp_path / "none"
    result = runner.invoke(main, ["sweep", "--log", str(log), "--percentiles", "50,100",
                                  "--out", str(out)])
    assert (result.exit_code, refused.exit_code) == (3, 3)
    assert result.stderr == refused.stderr == "error: tau 0.7 gates episode 'q3', which the log kept\n"
    assert not out.exists()


def test_sweep_of_a_selective_log_stops_below_its_lowest_kept_answer(runner, workspace):
    """A selective log at tau 0.3 kept q8 (0.6) and every answer above it:
    its sweep keeps exactly the points whose tau is below 0.6, and each is
    the row of `metrics --tau` there."""
    tmp, data, script = workspace
    run_cli(runner, ["run", "--dataset", str(data), "--mock-script", str(script),
                     "--mode", "selective", "--tau", "0.3", "--out", str(tmp / "run")])
    log = tmp / "run" / "episodes.jsonl"
    rows = sweep_rows(runner, log, tmp / "sweep")
    confidences = sorted(
        json.loads(line)["initial"]["confidence"] for line in log.read_text().splitlines()
    )
    taus = [evaluation.percentile_to_tau(confidences, p) for p in cli.DEFAULT_PERCENTILES]
    assert [row["tau"] for row in rows] == [tau for tau in taus if tau < 0.6]
    for row in rows:
        report = metrics_at(runner, log, row["tau"], tmp / "metrics")
        assert (report["eta"], report["accuracy_after"]) == (row["eta"], row["accuracy"])


def test_run_onto_a_log_it_cannot_answer_exits_3(runner, workspace):
    """`run --mode decompose_all` resumed onto a direct log reports at tau =
    1, which gates the kept answers of the direct run: it writes the
    manifest, no metrics.json, and exits 3 naming the first of them."""
    tmp, data, script = workspace
    half = tmp / "half.jsonl"
    dataset.save_dataset(dataset.load_dataset(data)[:4], half)
    direct, out = tmp / "direct", tmp / "out"
    run_cli(runner, ["run", "--dataset", str(half), "--mock-script", str(script),
                     "--mode", "direct", "--out", str(direct)])
    out.mkdir()
    shutil.copy(direct / "episodes.jsonl", out)
    result = runner.invoke(main, ["run", "--dataset", str(data), "--mock-script", str(script),
                                  "--mode", "decompose_all", "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr == "error: tau 1.0 gates episode 'q1', which the log kept\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "decompose_all"
    assert (manifest["episodes"], manifest["new_episodes"], manifest["resolved_tau"]) == (8, 4, 1.0)
    assert sorted(os.listdir(out)) == ["episodes.jsonl", "manifest.json"]


class Trap:
    """Unpickling it creates the file ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return Path.touch, (self.path,)


def with_crc(body: bytes) -> bytes:
    """Cache bytes ending in the CRC-32 of ``body``, as the writer ends them."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def damage_cache(cache, kind, trap):
    """Replace a cache written for its log by a damaged one of ``kind``."""
    whole = cache.read_bytes()
    # The key line, the ids line, then the columns: 8 bytes a confidence,
    # four flags a byte each, then 8 bytes a valid confidence.
    key, ids, columns = whole[:-4].split(b"\n", 2)
    n = len(json.loads(ids))
    cache.unlink()
    if kind == "truncated":
        cache.write_bytes(whole[:-100])
    elif kind == "crc":
        cache.write_bytes(whole[:-5] + bytes([whole[-5] ^ 0x01]) + whole[-4:])
    elif kind == "not_a_zip":
        cache.write_text("not a zip\n")
    elif kind == "pickle":
        cache.write_bytes(pickle.dumps({"cache": whole, "trap": Trap(trap)}))
    elif kind == "npy_of_objects":
        with open(cache, "wb") as fh:
            np.save(fh, np.array([Trap(trap)], dtype=object), allow_pickle=True)
    elif kind == "directory":
        cache.mkdir()
    else:
        # The key of the log's text and a CRC that matches, with ids or a
        # column that is no column of the log.
        if kind == "objects":
            ids = json.dumps([{"id": f"q{i}"} for i in range(n)]).encode()
        elif kind == "ids_not_json":
            ids = ids[:-1]
        elif kind == "ids_nested":
            ids = b"[" * 100_000 + b"]" * 100_000
        elif kind == "short":
            columns = columns[:-1]
        elif kind == "float32":
            floats = array("d")
            floats.frombytes(columns[: 8 * n])
            columns = array("f", floats).tobytes() + columns[8 * n :]
        elif kind == "int8_flags":  # a correct_after flag of -1
            columns = columns[: 11 * n] + b"\xff" + columns[11 * n + 1 :]
        rest = ids + b"\n" + columns
        if kind == "no_ids_line":
            rest = rest.replace(b"\n", b" ")
        cache.write_bytes(with_crc(key + b"\n" + rest))


@pytest.mark.parametrize(
    "kind",
    ["truncated", "crc", "not_a_zip", "pickle", "npy_of_objects", "directory", "objects",
     "ids_not_json", "ids_nested", "no_ids_line", "short", "float32", "int8_flags"],
)
def test_metrics_reads_past_a_damaged_cache(runner, tmp_path, kind):
    """`metrics --log` over a log whose cache is damaged writes what it
    writes over the log alone, loads no pickle, and replaces a cache file.
    The cases with a CRC that matches are one each of what the reader
    checks past it: ids that are no JSON list of strings, a length, and a
    flag byte other than 0 or 1."""
    log = tmp_path / "episodes.jsonl"
    log.write_text("".join(json.dumps({**GOOD_EPISODE, "id": f"q{i}", "correct_after": i % 2 == 0})
                           + "\n" for i in range(5)))
    expected = metrics_outputs(runner, log, tmp_path / "fresh")
    cache = Path(f"{log}.columns")
    written = cache.read_bytes()
    trap = tmp_path / "unpickled"
    damage_cache(cache, kind, trap)
    assert metrics_outputs(runner, log, tmp_path / "out") == expected
    assert not trap.exists()
    assert sorted(os.listdir(tmp_path)) == ["episodes.jsonl", "episodes.jsonl.columns",
                                            "fresh", "out"]
    assert cache.is_dir() == (kind == "directory")
    if kind != "directory":
        assert cache.read_bytes() == written


def test_metrics_over_a_read_only_directory_writes_no_cache(runner, tmp_path, monkeypatch):
    """A log in a directory that cannot be written reads as it does with a
    cache, every time, and no file is left next to it."""
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    log = log_dir / "episodes.jsonl"
    log.write_text("".join(json.dumps({**GOOD_EPISODE, "id": f"q{i}"}) + "\n" for i in range(3)))
    expected = metrics_outputs(runner, log, tmp_path / "fresh")
    Path(f"{log}.columns").unlink()
    log_dir.chmod(0o555)
    try:
        if os.access(log_dir, os.W_OK):
            # Root writes whatever the mode says: the writer refuses the
            # log's directory, as it does a read-only one.
            replacing = dataset.replacing

            def refuse(path, *args, **kwargs):
                if Path(path).parent == log_dir:
                    raise PermissionError(errno.EACCES, "Permission denied", str(path))
                return replacing(path, *args, **kwargs)

            for module in (dataset, pipeline):
                monkeypatch.setattr(module, "replacing", refuse)
        for out in ("out", "again"):
            assert metrics_outputs(runner, log, tmp_path / out) == expected
            assert os.listdir(log_dir) == ["episodes.jsonl"]
    finally:
        log_dir.chmod(0o755)


def test_a_log_replaced_by_a_directory_exits_3_past_its_cache(runner, tmp_path):
    """A log that left a cache, then was replaced by a directory of its
    name, exits 3 with the error of its ``open``: on the cache, as with
    none, where the parse prints it."""
    log = tmp_path / "episodes.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n")
    metrics_outputs(runner, log, tmp_path / "fresh")
    cache = Path(f"{log}.columns")
    log.unlink()
    log.mkdir()
    expected = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{log}'"
    for cached in (True, False):
        assert cache.exists() == cached
        result = runner.invoke(main, ["metrics", "--log", str(log), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert result.stderr.splitlines() == [expected]
        cache.unlink(missing_ok=True)


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
    # No JSON alone, but comma-joined with line 3 it is two valid records.
    "crafted_pair": bad_episode()[:-1] + ', "y": [1\n2]}, ' + bad_episode(id="z"),
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
    # The log leaves no cache, so a second read finds the same line.
    for _ in range(2):
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 3
        errors = [line for line in result.stderr.splitlines() if line]
        assert errors == [errors[0]] and errors[0].startswith("error: ")
        assert f"{log}:2" in errors[0]
        assert not (out / "metrics.json").exists()
        assert not Path(f"{log}.columns").exists()


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


# (command, output file made a directory, or None for an output directory
# that is a file): every output each command writes.
UNWRITABLE = [
    ("run", None), ("metrics", None), ("sweep", None), ("simulate", None), ("convert", None),
    ("run", "manifest.json"), ("run", "metrics.json"), ("metrics", "metrics.json"),
    ("metrics", "sweep.csv"), ("sweep", "sweep.csv"), ("simulate", "simulated_sweep.csv"),
    ("convert", "converted.jsonl"),
]


@pytest.mark.parametrize(
    "command, output", UNWRITABLE, ids=["-".join(filter(None, case)) for case in UNWRITABLE]
)
def test_unwritable_output_exits_2(runner, workspace, loopback, command, output):
    """An output directory that is an existing file, or lies under one, or an
    ``output`` file that is a directory, is a config error named by its
    path, not a traceback. A run whose directory cannot be made, or whose
    manifest.json or metrics.json is a directory, makes no backend call and
    writes no episode."""
    tmp, data, _ = workspace
    server = loopback(respond=lambda body: {"text": "yes", "token_logprobs": [-0.1]})
    blocker = tmp / "a_file"
    blocker.write_text("")
    log = tmp / "episodes.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n")
    source = tmp / "winoground.jsonl"
    source.write_text(WINOGROUND_LINE + "\n")
    out_dir = blocker if output is None else tmp / "out"
    args = ["--out", str(out_dir)]
    if command == "run":
        args = ["run", "--dataset", str(data), "--recomposer-url", server.url, *args]
    elif command in ("metrics", "sweep"):
        args = [command, "--log", str(log), *args]
    elif command == "simulate":
        args = ["simulate", "--acc", "0.6", "--ecr", "0.3", "--eic", "0.1", "--trials", "100", *args]
    else:
        out_dir = blocker / "sub" if output is None else out_dir
        args = ["convert", "--input", str(source), "--output", str(out_dir / "converted.jsonl")]
    out = out_dir if output is None else out_dir / output
    if output is not None:
        out.mkdir(parents=True)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
    assert server.received == []
    assert blocker.read_text() == ""
    assert sorted(tmp.rglob("*.tmp")) == []
    assert not (out_dir / "episodes.jsonl").exists()


class Crash(Exception):
    """A process that dies while a payload writer is writing."""


def crash_writing(fh, **arrays):
    """Write part of a payload to ``fh``, then die."""
    fh.write(b"PK\x03\x04" if "b" in fh.mode else '{"partial')
    raise Crash


class CrashingCSVWriter:
    def __init__(self, fh):
        self.fh = fh

    def writerow(self, row):
        crash_writing(self.fh)


# (command, output): every output a command replaces. Its payload writer is
# json.dump, csv.writer, the save_dataset loop or the cache writer, which
# takes a CRC-32 of each part it writes, by its suffix.
CRASHES = [
    ("metrics", "metrics.json"), ("metrics", "sweep.csv"), ("sweep", "sweep.csv"),
    ("simulate", "simulated_sweep.csv"), ("convert", "converted.jsonl"),
    ("metrics", "episodes.jsonl.columns"),
]


@pytest.mark.parametrize("command, output", CRASHES, ids=["-".join(case) for case in CRASHES])
def test_crash_mid_write_keeps_the_old_output(runner, tmp_path, monkeypatch, command, output):
    """A command that dies while it writes an output leaves the file that
    was there, byte for byte, and no temporary file."""
    out = tmp_path / "out"
    out.mkdir()
    log = out / "episodes.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n")
    source = tmp_path / "winoground.jsonl"
    source.write_text(WINOGROUND_LINE + "\n")
    target = out / output
    sentinel = b"the output of an earlier command\n"
    target.write_bytes(sentinel)
    if output.endswith(".json"):
        monkeypatch.setattr(json, "dump", lambda obj, fh, **kwargs: crash_writing(fh))
    elif output.endswith(".csv"):
        monkeypatch.setattr(csv, "writer", CrashingCSVWriter)
    elif output.endswith(".columns"):
        # The writer takes each part's CRC after it writes the part.
        def crash(*args):
            raise Crash

        monkeypatch.setattr(zlib, "crc32", crash)
    else:
        convert = dataset.convert_winoground

        def crash_after_one(records):
            yield convert(records)[0][0]
            raise Crash

        monkeypatch.setattr(dataset, "convert_winoground", lambda r: (crash_after_one(r), 0))
    if command == "convert":
        args = ["convert", "--input", str(source), "--output", str(target)]
    elif command == "simulate":
        args = ["simulate", "--acc", "0.6", "--ecr", "0.3", "--eic", "0.1", "--trials", "100",
                "--out", str(out)]
    else:
        args = [command, "--log", str(log), "--out", str(out)]
    result = runner.invoke(main, args)
    assert isinstance(result.exception, Crash)
    assert target.read_bytes() == sentinel
    assert sorted(tmp_path.rglob("*.tmp")) == []


def test_closed_stdout_is_named(tmp_path):
    """A command whose standard output has lost its reader exits 2 naming
    standard output, which has no file name."""
    data = tmp_path / "data.jsonl"
    dataset.save_dataset(spec_questions(FOUR_EPISODE_SPECS), data)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(secondguess.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "secondguess.cli", "stats", "--dataset", str(data)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


def test_ctrl_c_exits_1_with_no_traceback(runner, tmp_path, monkeypatch):
    """A command stopped by Ctrl-C exits 1 with ``Aborted!`` and no
    traceback, and leaves the collector as it found it."""
    def interrupt(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "read_episode_log", interrupt)
    log = tmp_path / "episodes.jsonl"
    log.write_text(json.dumps(GOOD_EPISODE) + "\n")
    result = runner.invoke(main, ["metrics", "--log", str(log), "--out", str(tmp_path / "out")])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")
    assert gc.isenabled()


# A selective run at concurrency 4, then a sweep over its log, in one
# process; given the dataset, the mock script and the output directory.
RUN_AND_SWEEP = """
import sys
from secondguess.cli import main
data, script, out = sys.argv[1:]
for args in (["run", "--dataset", data, "--mock-script", script, "--mode", "selective",
              "--tau-percentile", "50", "--concurrency", "4", "--out", out],
             ["sweep", "--log", out + "/episodes.jsonl", "--out", out]):
    try:
        main(args)
    except SystemExit as exc:  # 1: a run with failed episodes
        if exc.code not in (0, 1):
            raise
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``PYTHONHASHSEED`` sets how a string hashes, and so the order of a set
    of strings: a run over questions of three qtypes, one in five a script
    miss, and a sweep over its log write the same bytes under two seeds."""
    specs = [
        QSpec(f"q{i}", f"is thing {i} red?", "yes", ("yes", "no")[i % 2], (i % 10 + 0.5) / 10,
              f"is part {i} seen?", "yes", ("yes", "no")[i % 3 == 0])
        for i in range(40)
    ]
    questions = [q._replace(qtype=dataset.QTYPES[i % 3])
                 for i, q in enumerate(spec_questions(specs))]
    data, script = tmp_path / "dataset.jsonl", tmp_path / "script.jsonl"
    dataset.save_dataset(questions, data)
    write_script([s for i, s in enumerate(specs) if i % 5], script)
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        result = subprocess.run(
            [sys.executable, "-c", RUN_AND_SWEEP, str(data), str(script), str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(secondguess.__file__).parents[1]),
                 "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("episodes.jsonl", "metrics.json", "sweep.csv")])
    assert outputs[0] == outputs[1]


FAILED_EPISODE = {**GOOD_EPISODE, "initial": {"text": "", "confidence": 0.0}, "failed": True}


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--concurrency", "0"], 2, "concurrency must be positive"),
        (["--mode", "selective", "--tau-percentile", "150"], 2,
         "tau_percentile must be in [0, 100]"),
        (["--config", "{tmp}/list.json"], 2, "config file must hold a JSON object"),
        (["run", "--dataset", "{data}"], 2, "one of mock_script / recomposer_url is required"),
        (["run", "--mock-script", "{script}"], 2, "dataset path is required"),
        (["simulate", "--acc", "1.5", "--ecr", "0.3", "--eic", "0.1"], 2,
         "base_accuracy must be in [0, 1]"),
        (["simulate", "--acc", "0.5", "--ecr", "0.3", "--eic", "0.1", "--seed", "-1"], 2,
         "seed must be >= 0"),
        (["sweep", "--log", "{tmp}/failed.jsonl"], 3, "no scorable episodes"),
    ],
    ids=["concurrency_0", "tau_percentile_150", "config_not_object", "no_backend",
         "no_dataset", "simulate_acc", "simulate_seed_negative", "sweep_all_failed"],
)
def test_bad_setting_exits_before_out(runner, workspace, args, code, message):
    """A setting out of range or missing, a config file that is no object,
    or a log with no episode to sweep exits with its message and makes no
    out/. Arguments that do not name a command are those of a run on the
    workspace's dataset and mock script."""
    tmp, data, script = workspace
    (tmp / "list.json").write_text("[]")
    (tmp / "failed.jsonl").write_text(json.dumps(FAILED_EPISODE) + "\n")
    if args[0] not in ("run", "simulate", "sweep"):
        args = ["run", "--dataset", "{data}", "--mock-script", "{script}", *args]
    out = tmp / "out"
    args = [arg.format(tmp=tmp, data=data, script=script) for arg in args]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == code
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_an_out_that_cannot_be_written_costs_no_call(runner, workspace, monkeypatch):
    """A run writes its manifest before its first backend call, so an out/
    whose files cannot be opened exits 2 naming the manifest, with no call
    made and no log. Root may write any directory, so ``open`` refuses
    every file under out/ as it would refuse another user."""
    tmp, data, script = workspace
    out = tmp / "out"
    real_open = open

    def refuse(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == out:
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(file))
        return real_open(file, *args, **kwargs)

    calls = []
    complete = MockBackend.complete

    def counted(self, request, role):
        calls.append(request)
        return complete(self, request, role)

    monkeypatch.setattr(MockBackend, "complete", counted)
    monkeypatch.setattr(builtins, "open", refuse)
    result = runner.invoke(main, [
        "run", "--dataset", str(data), "--mock-script", str(script), "--mode", "selective",
        "--tau-percentile", "50", "--out", str(out),
    ])
    assert result.exit_code == 2
    assert result.stderr == f"error: cannot write {out / 'manifest.json'}: Permission denied\n"
    assert calls == []
    assert sorted(os.listdir(out)) == []


@pytest.mark.parametrize("command", ["metrics", "sweep"])
def test_log_in_an_unsearchable_directory_exits_3(runner, tmp_path, monkeypatch, command):
    """A --log whose directory cannot be searched is a log not found, an
    input's exit 3, not an output that cannot be written. Root searches any
    directory, so os.stat refuses the log as it would refuse another user."""
    log = tmp_path / "locked" / "episodes.jsonl"
    stat = os.stat

    def refuse(path, *args, **kwargs):
        if os.fspath(path) == str(log):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", refuse)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--log", str(log), "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr.splitlines() == [f"error: episode log not found: {log}"]
    assert not out.exists()


def test_run_over_an_unreadable_log_exits_3(runner, workspace):
    """An episodes.jsonl that cannot be read is a dataset error of `run` as
    of `metrics` and `sweep`, not a traceback."""
    tmp, data, script = workspace
    out = tmp / "out"
    (out / "episodes.jsonl").mkdir(parents=True)
    result = runner.invoke(
        main, ["run", "--dataset", str(data), "--mock-script", str(script), "--out", str(out)]
    )
    assert result.exit_code == 3
    errors = [line for line in result.stderr.splitlines() if line]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert str(out / "episodes.jsonl") in errors[0]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "url",
    ["notaurl", "ftp://x", "http://", "http://u:pw@host", "http://host:99999", "http://host/a b",
     "http://host/café", "http://a b/", "http://a..b/", f"http://{'x' * 64}.example/"],
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


@pytest.mark.parametrize("style", [None, "decompose_galactica_instruct"])
def test_decomposer_gets_the_configured_prompt_style(runner, workspace, loopback, style):
    """The decomposer is sent the template of the --config file's
    decomposer_prompt_style, rendered with each question; without the key,
    decompose_default's."""
    tmp, data, _ = workspace
    recomposer = loopback(respond=answer_from_prompt)
    decomposer = loopback(respond=lambda req: {
        "text": "is it red?", "token_logprobs": [-0.1], "cumulative_logprob": -0.1})
    config = tmp / "config.json"
    config.write_text(json.dumps({"decomposer_prompt_style": style} if style else {}))
    result = run_cli(runner, [
        "run", "--config", str(config), "--dataset", str(data), "--mode", "decompose_all",
        "--recomposer-url", recomposer.url, "--decomposer-url", decomposer.url,
        "--out", str(tmp / "out"),
    ])
    assert result.exit_code == 0, result.output
    template = prompts.TEMPLATES[style or "decompose_default"]
    sent = [json.loads(raw)["prompt"] for _, _, raw in decomposer.received]
    assert sent == [template.replace("{question}", q.question)
                    for q in dataset.load_dataset(data)]


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


def test_manifest_counts_alike_at_every_concurrency(runner, workspace, loopback, monkeypatch):
    """Transport faults keyed by request, some that spend the whole retry
    budget: the manifest's backend_calls, retries and failures at
    concurrency 4 equal those at concurrency 1."""
    monkeypatch.setattr(cli, "HTTPBackend", NoSleepHTTPBackend)
    tmp, data, _ = workspace
    counts = []
    for concurrency in (1, 4):
        attempts, lock = {}, threading.Lock()

        def respond(req):
            # A question's calls are sequential, so the faults of each
            # (prompt, image) fall on the same attempts in any order.
            key = json.dumps([req["prompt"], req["image"]])
            with lock:
                attempts[key] = attempts.get(key, 0) + 1
            faults = hashlib.sha256(key.encode("utf-8")).digest()[0] % (DEFAULT_RETRY_ATTEMPTS + 1)
            return Reply(503) if attempts[key] <= faults else answer_from_prompt(req)

        server = loopback(respond=respond)
        out = tmp / f"c{concurrency}"
        run_cli(runner, [
            "run", "--dataset", str(data), "--recomposer-url", server.url,
            "--mode", "decompose_all", "--concurrency", str(concurrency), "--out", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        counts.append((manifest["backend_calls"], manifest["retries"], manifest["failures"]))
        assert manifest["backend_calls"] + manifest["retries"] == len(server.received)
    assert counts[0] == counts[1]
    assert counts[0][1] > 0 and counts[0][2] > 0


@pytest.mark.parametrize("code", [0, 1, 2, 3, "raises", "held"])
def test_run_restores_the_collector_when_it_exits(runner, workspace, monkeypatch, code):
    """A command runs with the cyclic collector disabled, as a backend's
    ``complete`` in ``run`` and ``read_episode_log`` in ``metrics`` see it,
    and enables it again whatever the exit: 0; 1, as a question fails; 2,
    as the run's log cannot be appended to; 3, as the log it resumes holds
    a bad line; or a RuntimeError from a backend ("raises"). A caller that
    had disabled it ("held") finds it still disabled."""
    tmp, data, script = workspace
    out = tmp / "out"
    out.mkdir()
    seen = []
    complete, read_episode_log = MockBackend.complete, pipeline.read_episode_log

    def watched_complete(self, request, role):
        seen.append(("complete", gc.isenabled()))
        if code == 1 and request.request_id == "q2#initial":
            raise BackendError("refused")
        if code == "raises":
            raise RuntimeError("no backend failure")
        return complete(self, request, role)

    def watched_read(path):
        seen.append(("read_episode_log", gc.isenabled()))
        return read_episode_log(path)

    monkeypatch.setattr(MockBackend, "complete", watched_complete)
    monkeypatch.setattr(pipeline, "read_episode_log", watched_read)
    if code == 2:
        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(pipeline, "open", refuse, raising=False)
    elif code == 3:
        (out / "episodes.jsonl").write_text("{\n")
    if code == "held":
        gc.disable()
    try:
        result = runner.invoke(main, [
            "run", "--dataset", str(data), "--mock-script", str(script), "--out", str(out),
        ])
        if code in (0, 1, "held"):
            metrics = runner.invoke(main, [
                "metrics", "--log", str(out / "episodes.jsonl"), "--out", str(out),
            ])
            assert metrics.exit_code == 0, metrics.output
        enabled = gc.isenabled()
    finally:
        gc.enable()
    if code == "raises":
        assert isinstance(result.exception, RuntimeError)
    else:
        assert result.exit_code == (0 if code == "held" else code), result.output
    # A resumed log with a bad line stops the run before any backend call.
    watched = {2: {"complete"}, 3: set(), "raises": {"complete"}}.get(
        code, {"complete", "read_episode_log"})
    assert {where for where, _ in seen} == watched
    assert not any(enabled for _, enabled in seen)
    assert enabled is (code != "held") and gc.get_freeze_count() == 0


def _cycles_of(args) -> int:
    """How many objects one ``gc.collect()`` finds unreachable, under
    ``gc.DEBUG_SAVEALL``, after the command ``args`` ran as the console
    script runs it: those in reference cycles and those only they hold."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            main.main(args=args, prog_name="secondguess")
        except SystemExit:
            pass
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_command_makes_no_cycles_per_item(tmp_path, loopback):
    """A command runs with the cyclic collector disabled, which is safe only
    while it makes a fixed number of reference cycles, none per item. The
    count is the same at n and at 10 n items for a run over a mock script,
    one question in five a script miss, at concurrency 1 and 4; a run over
    HTTP whose first request meets a 503 that a retry absorbs; a cold
    ``metrics``; and a ``sweep`` that hits the column cache."""

    def cycles(n: int) -> dict:
        specs = [
            QSpec(f"q{i}", f"is thing {i} red?", "yes", ("yes", "no")[i % 2],
                  (i % 10 + 0.5) / 10, f"is part {i} seen?", "yes", ("yes", "no")[i % 3 == 0])
            for i in range(n)
        ]
        top = tmp_path / str(n)
        top.mkdir()
        data, script = top / "dataset.jsonl", top / "script.jsonl"
        dataset.save_dataset(spec_questions(specs), data)
        write_script([s for i, s in enumerate(specs) if i % 5], script)
        found = {}
        for concurrency in (1, 4):
            out = top / f"mock{concurrency}"
            found[f"run mock c{concurrency}"] = _cycles_of([
                "run", "--dataset", str(data), "--mock-script", str(script), "--mode",
                "selective", "--tau", "0.5", "--concurrency", str(concurrency), "--out", str(out),
            ])
            assert json.loads((out / "manifest.json").read_text())["failures"] == n // 5
        server = loopback([Reply(503)], answer_from_prompt)
        found["run http"] = _cycles_of([
            "run", "--dataset", str(data), "--recomposer-url", server.url, "--mode",
            "decompose_all", "--concurrency", "2", "--out", str(top / "http"),
        ])
        manifest = json.loads((top / "http" / "manifest.json").read_text())
        assert (manifest["retries"], manifest["failures"]) == (1, 0)
        log = str(top / "mock1" / "episodes.jsonl")
        for command in ("metrics", "sweep"):
            found[command] = _cycles_of([command, "--log", log, "--out", str(top / command)])
            assert (top / command / "sweep.csv").exists()
        return found

    assert cycles(20) == cycles(200)


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
        "print(sorted({'requests', 'urllib3', 'http.client', 'ssl', 'email', 'socket'}\n"
        "             & set(sys.modules)))\n"
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
        # The grid is checked first: an empty one is no default grid.
        (["--log", "{tmp}/missing.jsonl", "--percentiles", ""], 2),
    ],
    ids=["missing_log", "empty_percentiles"],
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


def test_metrics_missing_log_and_bad_dataset_names_the_dataset_line(runner, workspace):
    """The dataset is read before the log is looked for, so its bad line is
    what a run with both faults names."""
    tmp, data, _ = workspace
    out = tmp / "out"
    bad = tmp / "bad.jsonl"
    bad.write_text(data.read_text() + "{not json\n")
    lineno = len(data.read_text().splitlines()) + 1
    result = runner.invoke(
        main,
        ["metrics", "--log", str(tmp / "missing.jsonl"), "--dataset", str(bad),
         "--out", str(out)],
    )
    assert result.exit_code == 3
    assert result.stderr.startswith(f"error: {bad}:{lineno}: invalid JSON (")
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
    """The options, ``--help`` aside, that ``secondguess NAME --help`` lists."""
    result = CommandRunner().invoke(main, [name, "--help"])
    assert result.exit_code == 0, result.output
    return sorted(set(re.findall(r"^  (--[a-z-]+)", result.stdout, re.M)) - {"--help"})


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


def cli_exit_codes() -> set:
    """The codes of every ``sys.exit`` and ``_fail`` call in ``cli``: a
    literal, a module constant such as ``EXIT_CONFIG``, or either branch of
    a conditional. The ``sys.exit`` in ``_fail`` forwards ``_fail``'s own."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    fail = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_fail")
    forwarding = set(map(id, ast.walk(fail)))

    def values(node) -> set:
        if isinstance(node, ast.IfExp):
            return values(node.body) | values(node.orelse)
        if isinstance(node, ast.Name):
            return {getattr(cli, node.id)}
        return {ast.literal_eval(node)}

    return {
        code
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in forwarding
        and ast.unparse(node.func) in ("sys.exit", "_fail")
        for code in values(node.args[0])
    }


def test_readme_lists_exactly_the_exit_codes_cli_returns():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [int(code) for code in re.findall(r"^- (\d+): ", block, re.M)]
    assert len(listed) == len(set(listed))
    assert set(listed) == cli_exit_codes() == {0, 1, cli.EXIT_CONFIG, cli.EXIT_DATASET}


def test_readme_cli_examples_use_real_options():
    examples = readme_cli_examples()
    assert {args[0] for args in examples} == set(CLI_SURFACE)
    for command, *args in examples:
        options = command_options(command)
        for arg in args:
            if arg.startswith("--"):
                assert arg in options, f"README: {command} has no {arg}"
