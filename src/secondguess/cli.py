"""Command-line entry point wiring datasets, backends, pipeline, metrics,
and simulator into reproducible runs.

`run` is the one command that runs the chain and writes an episode log, in
any of the seven modes; `metrics` and `sweep` only read a log. Exit codes: 0
success, 1 completed with failed episodes in the whole log (no metrics.json
if all failed), 2 config validation, 3 dataset error. All outputs go under
--out; every run directory gets a manifest recording the resolved config, its
hash, the seed, timestamps, the whole log's episode and failure counts, and
this invocation's backend calls and transport retries.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

# numpy's OpenBLAS threads busy-wait after load; no command does BLAS work.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import __version__, dataset, evaluation, pipeline, prompts, simulator
from .backend import DEFAULT_RETRY_ATTEMPTS, HTTPBackend, MockBackend
from .dataset import DatasetError
from .pipeline import ConfigError, Engine, PipelineConfig

EXIT_CONFIG = 2
EXIT_DATASET = 3

# Every run option, written once: (config key, type, default, whether `run`
# takes it as --key-with-dashes; if not, it is config-file only). A type is
# int, float, str, or a tuple of the allowed strings. Flags win over --config
# file values, which win over the defaults; file values are checked against
# the same types.
OPTIONS = (
    ("dataset", str, None, True),
    ("recomposer_url", str, None, True),
    ("decomposer_url", str, None, True),
    ("mock_script", str, None, True),
    ("mode", pipeline.MODES, "direct", True),
    ("tau", float, None, True),
    ("tau_percentile", float, None, True),
    ("seed", int, 0, True),
    ("concurrency", int, 1, True),
    ("retry_budget", int, DEFAULT_RETRY_ATTEMPTS, False),
    ("out", str, "out", True),
    ("scoring", pipeline.SCORINGS, "exact", True),
    ("decomposer_prompt_style", prompts.DECOMPOSE_STYLES, "decompose_default", False),
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


def _run_options(fn):
    """Decorate `run` with --config and its flags from OPTIONS."""
    for key, kind, _, is_flag in reversed(OPTIONS):
        if is_flag:
            click_type = click.Choice(kind) if isinstance(kind, tuple) else kind
            flag = "--" + key.replace("_", "-")
            fn = click.option(flag, key, type=click_type, default=None)(fn)
    return click.option("--config", "config_path", type=click.Path(exists=True))(fn)


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
            file_cfg = dataset.read_json(config_path)
        except (OSError, DatasetError) as exc:
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
    if cfg["retry_budget"] < 1:
        _fail(EXIT_CONFIG, "retry_budget must be at least 1")
    return cfg


def _build_engine(cfg: dict) -> Engine:
    style = cfg["decomposer_prompt_style"]
    if cfg.get("mock_script"):
        try:
            mock = MockBackend.from_script(cfg["mock_script"])
        except (OSError, DatasetError) as exc:
            _fail(EXIT_CONFIG, f"cannot read mock script: {exc}")
        return Engine(recomposer=mock, decomposer=mock, decomposer_prompt_style=style)
    if not cfg.get("recomposer_url"):
        _fail(EXIT_CONFIG, "one of mock_script / recomposer_url is required")
    try:
        recomposer = HTTPBackend(cfg["recomposer_url"], attempts=cfg["retry_budget"])
        decomposer = recomposer
        if cfg.get("decomposer_url"):
            decomposer = HTTPBackend(cfg["decomposer_url"], attempts=cfg["retry_budget"])
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))
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
        return dataset.load_dataset(path)
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


@main.command("run")
@_run_options
def cmd_run(config_path, **flags) -> None:
    """Execute a pipeline run and write episodes, metrics, and a manifest."""
    cfg = _load_config(config_path, flags)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    questions = _load_questions(cfg.get("dataset"))
    pcfg = _pipeline_config(cfg)
    if pcfg.mode in pipeline.ORACLE_MODES and not any(q.oracle_sub_qas for q in questions):
        _fail(EXIT_DATASET, "dataset carries no sub_qas; oracle modes need them")
    # Built before out/ exists, so a bad backend config writes nothing.
    engine = _build_engine(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes_path = out_dir / "episodes.jsonl"
    try:
        try:
            summary = pipeline.run(questions, pcfg, engine, episodes_path)
        finally:
            for backend in (engine.recomposer, engine.decomposer):
                if isinstance(backend, HTTPBackend):
                    backend.close()
        # Free the backends (a mock's script and index) before the log is
        # read back.
        del engine
        log = pipeline.read_episode_log(episodes_path)
    except DatasetError as exc:
        _fail(EXIT_DATASET, str(exc))
    _write_manifest(out_dir, cfg, started, asdict(summary))
    qtype_map = {q.id: q.qtype for q in questions}
    try:
        report = evaluation.compute_report(
            log, tau=summary.resolved_tau, qtype_map=qtype_map
        )
    except ValueError as exc:  # every episode failed
        _fail(1, str(exc))
    _write_json(out_dir / "metrics.json", asdict(report))
    click.echo(
        f"run complete: {summary.episodes} episodes "
        f"({summary.failures} failures) -> {episodes_path}"
    )
    sys.exit(0 if summary.failures == 0 else 1)


@main.command("sweep")
@click.option("--log", "log_path", type=click.Path(), required=True)
@click.option("--percentiles", default=None, help="comma-separated percentiles")
@click.option("--out", type=click.Path(), default="out")
def cmd_sweep(log_path, percentiles, out) -> None:
    """Offline threshold sweep over a decompose-all episode log; no model
    calls."""
    grid = _numbers(percentiles, "percentiles", 100.0, DEFAULT_PERCENTILES)
    if not Path(log_path).exists():
        _fail(EXIT_DATASET, f"episode log not found: {log_path}")
    try:
        points = evaluation.sweep(pipeline.read_episode_log(log_path), grid)
    except (OSError, DatasetError, ValueError) as exc:
        _fail(EXIT_DATASET, str(exc))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    evaluation.write_sweep_csv(points, csv_path)
    click.echo(f"wrote {len(points)} sweep points -> {csv_path}")


@main.command("convert")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", "output_path", type=click.Path(), required=True)
def cmd_convert(input_path, output_path) -> None:
    """Convert winoground-style records into the canonical VQA schema."""
    questions, warnings, records = [], 0, 0
    try:
        for lineno, record in dataset.read_jsonl(input_path):
            try:
                converted, warned = dataset.convert_winoground([record])
            except DatasetError as exc:
                _fail(EXIT_DATASET, f"{input_path}:{lineno}: {exc}")
            questions += converted
            warnings += warned
            records += 1
    except (OSError, DatasetError) as exc:  # unreadable, or a line is no JSON
        _fail(EXIT_DATASET, str(exc))
    dataset.save_dataset(questions, output_path)
    click.echo(
        f"converted {records} records into {len(questions)} questions "
        f"({warnings} caption warnings) -> {output_path}"
    )


@main.command("stats")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
def cmd_stats(dataset_path) -> None:
    """Print item count and average question length for a dataset."""
    stats = dataset.stats(_load_questions(dataset_path))
    click.echo(json.dumps({"name": dataset_path, **stats}, indent=2))


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
        f"decompose-all accuracy {curve.decompose_all_accuracy:.4f} "
        f"(closed form {simulator.closed_form_decompose_all(cfg):.4f}), "
        f"optimal tau {curve.optimal_tau} "
        f"(accuracy {curve.optimal_accuracy:.4f}) -> {csv_path}"
    )


@main.command("fit")
@click.argument("run_dirs", nargs=-1, required=True, type=click.Path())
def cmd_fit(run_dirs) -> None:
    """Regress net gain on threshold surprisal across runs' metrics.json.

    Runs without a surprisal (no tau, or tau 0) are left out; fewer than two
    runs with one, or all at one surprisal, exit 3.
    """
    points = []
    for run_dir in run_dirs:
        path = Path(run_dir) / "metrics.json"
        try:
            metrics = dataset.read_json(path)
            point = (metrics["surprisal"], metrics["net_gain"])
        except (OSError, DatasetError, KeyError, TypeError) as exc:
            _fail(EXIT_DATASET, f"cannot read surprisal and net_gain from {path}: {exc!r}")
        if point[0] is None:
            continue
        # bool is an int subclass, but true/false is no number.
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in point):
            _fail(EXIT_DATASET, f"{path}: surprisal and net_gain must be finite numbers")
        points.append(point)
    try:
        fit = evaluation.linear_fit(points)
    except ValueError as exc:
        _fail(EXIT_DATASET, f"{len(points)} runs with a surprisal: {exc}")
    click.echo(json.dumps({"runs": len(points), **fit}, indent=2))


@main.command("metrics")
@click.option("--log", "log_path", type=click.Path(), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), default=None)
@click.option("--tau", type=float, default=None)
@click.option("--out", type=click.Path(), default="out")
def cmd_metrics(log_path, dataset_path, tau, out) -> None:
    """Recompute the metrics report (and sweep CSV) from an episode log."""
    if tau is not None and not 0.0 <= tau <= 1.0:
        _fail(EXIT_CONFIG, "tau must be in [0, 1]")
    if not Path(log_path).exists():
        _fail(EXIT_DATASET, f"episode log not found: {log_path}")
    qtype_map = None
    if dataset_path:
        qtype_map = {q.id: q.qtype for q in _load_questions(dataset_path)}
    try:
        log = pipeline.read_episode_log(log_path)
        report = evaluation.compute_report(log, tau=tau, qtype_map=qtype_map)
    except (OSError, DatasetError, ValueError) as exc:
        _fail(EXIT_DATASET, str(exc))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "metrics.json", asdict(report))
    points = evaluation.sweep(log, DEFAULT_PERCENTILES)
    evaluation.write_sweep_csv(points, out_dir / "sweep.csv")
    click.echo(f"wrote metrics.json and sweep.csv -> {out_dir}")


if __name__ == "__main__":
    main()
