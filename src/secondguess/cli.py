"""Command-line entry point wiring datasets, backends, pipeline, metrics,
and simulator into reproducible runs.

Exit codes: 0 success, 1 completed with failed episodes (no metrics.json if
all failed), 2 config validation, 3 dataset error, 4 irrecoverable backend
error. All outputs go under --out; every run directory gets a
manifest recording the resolved config, its hash, the seed, and timestamps.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import click

from . import __version__, dataset, evaluation, pipeline, prompts, simulator
from .backend import (
    BackendError,
    DEFAULT_RETRY_ATTEMPTS,
    HTTPBackend,
    MockBackend,
)
from .dataset import DatasetError
from .pipeline import ConfigError, Engine, PipelineConfig

EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_BACKEND = 4

RUN_COMMANDS = ("run", "sweep", "oracle")

# Every run option, written once: (config key, type, default, commands that
# take it as --key-with-dashes). A type is int, float, str, or a tuple of the
# allowed strings. Flags win over --config file values, which win over the
# defaults; file values are checked against the same types.
OPTIONS = (
    ("dataset", str, None, RUN_COMMANDS),
    ("recomposer_url", str, None, RUN_COMMANDS),
    ("decomposer_url", str, None, RUN_COMMANDS),
    ("mock_script", str, None, RUN_COMMANDS),
    ("mode", pipeline.MODES, "direct", ("run",)),
    ("tau", float, None, RUN_COMMANDS),
    ("tau_percentile", float, None, RUN_COMMANDS),
    ("seed", int, 0, RUN_COMMANDS),
    ("concurrency", int, 1, RUN_COMMANDS),
    ("retry_budget", int, DEFAULT_RETRY_ATTEMPTS, ()),
    ("out", str, "out", RUN_COMMANDS),
    ("scoring", ("exact", "vqa_consensus"), "exact", RUN_COMMANDS),
    ("decomposer_prompt_style", prompts.DECOMPOSE_STYLES, "decompose_default", ()),
)

DEFAULT_PERCENTILES = [float(p) for p in range(0, 101, 5)]


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _numbers(text: Optional[str], name: str, high: float, default: list) -> list:
    """Comma-separated numbers, each in [0, high], or exit 2; default if unset."""
    if not text:
        return default
    try:
        values = [float(v) for v in text.split(",")]
        if not all(0.0 <= v <= high for v in values):
            raise ValueError
    except ValueError:
        _fail(EXIT_CONFIG, f"{name} must be comma-separated numbers in [0, {high:g}]")
    return values


def _run_options(command: str):
    """Decorate a command with --config and its flags from OPTIONS."""

    def decorate(fn):
        for key, kind, _, commands in reversed(OPTIONS):
            if command in commands:
                click_type = click.Choice(kind) if isinstance(kind, tuple) else kind
                flag = "--" + key.replace("_", "-")
                fn = click.option(flag, key, type=click_type, default=None)(fn)
        return click.option("--config", "config_path", type=click.Path(exists=True))(fn)

    return decorate


def _checked(key: str, kind, value):
    """A config-file value of the option's type, or exit 2."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        _fail(EXIT_CONFIG, f"config key {key!r} must be one of {list(kind)}, got {value!r}")
    # bool is an int subclass, but true/false is no number.
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool):
        _fail(EXIT_CONFIG, f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _load_config(config_path, flags: dict) -> dict:
    """Resolve every option from flags, the --config file and the defaults."""
    file_cfg = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail(EXIT_CONFIG, f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            _fail(EXIT_CONFIG, "config file must hold a JSON object")
        unknown = set(file_cfg) - {key for key, *_ in OPTIONS}
        if unknown:
            _fail(EXIT_CONFIG, f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, kind, default, _ in OPTIONS:
        value = flags.get(key)
        if value is None and file_cfg.get(key) is not None:
            value = _checked(key, kind, file_cfg[key])
        if value is None:
            value = default
        if value is not None:
            cfg[key] = value
    env = os.environ.get("SECONDGUESS_RETRY_BUDGET")
    if env is not None:
        try:
            cfg["retry_budget"] = int(env)
        except ValueError:
            _fail(EXIT_CONFIG, "SECONDGUESS_RETRY_BUDGET must be an integer")
    return cfg


def _build_engine(cfg: dict) -> Engine:
    style = cfg["decomposer_prompt_style"]
    if cfg.get("mock_script"):
        try:
            mock = MockBackend.from_script(cfg["mock_script"])
        except (OSError, ValueError) as exc:
            _fail(EXIT_CONFIG, f"cannot read mock script: {exc}")
        return Engine(recomposer=mock, decomposer=mock, decomposer_prompt_style=style)
    if not cfg.get("recomposer_url"):
        _fail(EXIT_CONFIG, "one of mock_script / recomposer_url is required")
    recomposer = HTTPBackend(cfg["recomposer_url"], attempts=cfg["retry_budget"])
    decomposer = recomposer
    if cfg.get("decomposer_url"):
        decomposer = HTTPBackend(cfg["decomposer_url"], attempts=cfg["retry_budget"])
    return Engine(
        recomposer=recomposer, decomposer=decomposer, decomposer_prompt_style=style
    )


def _pipeline_config(cfg: dict) -> PipelineConfig:
    try:
        return PipelineConfig(
            mode=cfg["mode"],
            tau=cfg.get("tau"),
            tau_percentile=cfg.get("tau_percentile"),
            seed=cfg["seed"],
            concurrency=cfg["concurrency"],
            scoring=cfg["scoring"],
        )
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))


def _load_questions(path):
    if not path:
        _fail(EXIT_CONFIG, "dataset path is required")
    try:
        return dataset.load_dataset(path)[0]
    except (OSError, DatasetError) as exc:
        _fail(EXIT_DATASET, str(exc))


def _write_manifest(out_dir: Path, cfg: dict, started: str, extra: dict) -> None:
    canonical = json.dumps(cfg, sort_keys=True)
    manifest = {
        "tool_version": __version__,
        "config": cfg,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg["seed"],
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Selective question decomposition runner and evaluation harness."""


def _execute_run(cfg: dict, report_extra: Optional[dict] = None) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    questions = _load_questions(cfg.get("dataset"))
    pcfg = _pipeline_config(cfg)
    if pcfg.mode in pipeline.ORACLE_MODES and not any(q.oracle_sub_qas for q in questions):
        _fail(EXIT_DATASET, "dataset carries no sub_qas; oracle modes need them")
    engine = _build_engine(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes_path = out_dir / "episodes.jsonl"
    try:
        summary = pipeline.run_batch(questions, pcfg, engine, episodes_path)
        episodes = pipeline.read_episode_log(episodes_path)
    except BackendError as exc:
        _fail(EXIT_BACKEND, str(exc))
    except DatasetError as exc:
        _fail(EXIT_DATASET, str(exc))
    _write_manifest(out_dir, cfg, started, asdict(summary))
    qtype_map = {q.id: q.qtype for q in questions}
    try:
        report = evaluation.compute_report(
            episodes, tau=summary.resolved_tau, qtype_map=qtype_map
        )
    except ValueError as exc:  # every episode failed
        _fail(1, str(exc))
    _write_json(out_dir / "metrics.json", {**asdict(report), **(report_extra or {})})
    click.echo(
        f"run complete: {summary.episodes} episodes "
        f"({summary.failures} failures) -> {episodes_path}"
    )
    return 0 if summary.failures == 0 else 1


@main.command("run")
@_run_options("run")
def cmd_run(config_path, **flags) -> None:
    """Execute a pipeline run and write episodes, metrics, and a manifest."""
    sys.exit(_execute_run(_load_config(config_path, flags)))


@main.command("sweep")
@_run_options("sweep")
@click.option("--log", "log_path", type=click.Path(), default=None)
@click.option("--percentiles", default=None, help="comma-separated percentiles")
def cmd_sweep(config_path, log_path, percentiles, **flags) -> None:
    """Offline threshold sweep over a decompose-all episode log.

    If --log is not given, a decompose-all run is executed first using the
    provided config; the sweep itself issues no model calls.
    """
    grid = _numbers(percentiles, "percentiles", 100.0, DEFAULT_PERCENTILES)
    cfg = _load_config(config_path, flags)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    code = 0
    if log_path is None:
        cfg["mode"] = "decompose_all"
        cfg.pop("tau", None)
        cfg.pop("tau_percentile", None)
        code = _execute_run(cfg)
        log_path = out_dir / "episodes.jsonl"
    if not Path(log_path).exists():
        _fail(EXIT_DATASET, f"episode log not found: {log_path}")
    try:
        episodes = pipeline.read_episode_log(log_path)
        points = evaluation.sweep(episodes, grid)
    except (DatasetError, ValueError) as exc:
        _fail(EXIT_DATASET, str(exc))
    csv_path = out_dir / "sweep.csv"
    evaluation.write_sweep_csv(points, csv_path)
    click.echo(f"wrote {len(points)} sweep points -> {csv_path}")
    sys.exit(code)


@main.command("oracle")
@_run_options("oracle")
@click.option(
    "--condition",
    type=click.Choice([mode.removeprefix("oracle_") for mode in pipeline.ORACLE_MODES]),
    required=True,
)
def cmd_oracle(config_path, condition, **flags) -> None:
    """Run one oracle-consumption condition and emit a per-qtype report."""
    cfg = _load_config(config_path, flags)
    cfg["mode"] = f"oracle_{condition}"
    extra = {"condition": condition, "answers_present": condition != "no_answer"}
    sys.exit(_execute_run(cfg, extra))


@main.command("convert")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", "output_path", type=click.Path(), required=True)
def cmd_convert(input_path, output_path) -> None:
    """Convert winoground-style records into the canonical VQA schema."""
    records = []
    try:
        with open(input_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        questions, warnings = dataset.convert_winoground(records)
    except (json.JSONDecodeError, DatasetError) as exc:
        _fail(EXIT_DATASET, str(exc))
    dataset.save_dataset(questions, output_path)
    click.echo(
        f"converted {len(records)} records into {len(questions)} questions "
        f"({warnings} caption warnings) -> {output_path}"
    )


@main.command("stats")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
def cmd_stats(dataset_path) -> None:
    """Print item count and average question length for a dataset."""
    questions = _load_questions(dataset_path)
    computed = dataset.stats(questions, name=dataset_path)
    images = len({q.image for q in questions})
    click.echo(
        json.dumps(
            {
                "name": computed.name,
                "items": computed.items,
                "images": images,
                "avg_question_length": computed.avg_question_length,
            },
            indent=2,
        )
    )


@main.command("simulate")
@click.option("--acc", type=float, required=True)
@click.option("--ecr", type=float, required=True)
@click.option("--eic", type=float, required=True)
@click.option("--trials", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@click.option("--tau-grid", default=None, help="comma-separated thresholds")
@click.option("--out", type=click.Path(), default="out")
def cmd_simulate(acc, ecr, eic, trials, seed, tau_grid, out) -> None:
    """Simulate the accuracy-vs-threshold curve and write the sweep CSV."""
    taus = _numbers(tau_grid, "tau-grid", 1.0, [i / 20 for i in range(21)])
    try:
        cfg = simulator.SimConfig(
            base_accuracy=acc, e_cr=ecr, e_ic=eic, trials=trials, seed=seed
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))
    curve = simulator.simulate(cfg, taus)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "simulated_sweep.csv"
    evaluation.write_sweep_csv(curve.points, csv_path)
    click.echo(
        f"decompose-all accuracy {curve.decompose_all_accuracy:.4f}, "
        f"optimal tau {curve.optimal_tau} "
        f"(accuracy {curve.optimal_accuracy:.4f}) -> {csv_path}"
    )


@main.command("metrics")
@click.option("--log", "log_path", type=click.Path(exists=True), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), default=None)
@click.option("--tau", type=float, default=None)
@click.option("--out", type=click.Path(), default="out")
def cmd_metrics(log_path, dataset_path, tau, out) -> None:
    """Recompute the metrics report (and sweep CSV) from an episode log."""
    if tau is not None and not 0.0 <= tau <= 1.0:
        _fail(EXIT_CONFIG, "tau must be in [0, 1]")
    qtype_map = None
    if dataset_path:
        qtype_map = {q.id: q.qtype for q in _load_questions(dataset_path)}
    try:
        episodes = pipeline.read_episode_log(log_path)
        report = evaluation.compute_report(episodes, tau=tau, qtype_map=qtype_map)
    except (DatasetError, ValueError) as exc:
        _fail(EXIT_DATASET, str(exc))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "metrics.json", asdict(report))
    points = evaluation.sweep(episodes, DEFAULT_PERCENTILES)
    evaluation.write_sweep_csv(points, out_dir / "sweep.csv")
    click.echo(f"wrote metrics.json and sweep.csv -> {out_dir}")


if __name__ == "__main__":
    main()
