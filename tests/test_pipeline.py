import collections
import hashlib
import itertools
import json
import math
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_EPISODE_SPECS,
    FlakyBackend,
    LONG_INTEGER,
    NESTED_TOO_DEEP,
    NOT_UNPAIRED,
    NOT_UTF8,
    QSpec,
    RecordingBackend,
    UNPAIRED,
    log_columns,
    raw,
    read_log_by_line,
    read_records,
    run_mode,
    run_records,
    spec_entries,
    spec_questions,
)
from secondguess import evaluation, pipeline
from secondguess.backend import DEFAULT_RETRY_ATTEMPTS, MockBackend, MockEntry
from secondguess.dataset import DatasetError, VisualQuestion
from secondguess.pipeline import ConfigError, Engine, PipelineConfig
from secondguess.prompts import SubQA


def make_engine(specs, extra_entries=(), **kwargs):
    return engine_over(list(extra_entries) + spec_entries(specs), **kwargs)


def engine_over(entries, **kwargs):
    """An engine over one recorded mock of ``entries``."""
    backend = RecordingBackend(MockBackend(entries))
    return Engine(recomposer=backend, decomposer=backend, **kwargs), backend


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(mode="selective")  # no threshold
    with pytest.raises(ConfigError):
        PipelineConfig(mode="selective", tau=0.5, tau_percentile=50.0)
    with pytest.raises(ConfigError):
        PipelineConfig(mode="selective", tau=1.5)
    with pytest.raises(ConfigError):
        PipelineConfig(mode="direct", tau=0.5)
    with pytest.raises(ConfigError):
        PipelineConfig(mode="warp")


def test_tau_zero_everything_kept():
    episodes, engine = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.0)
    assert all(ep["gate"] == "kept" for ep in episodes)
    assert engine.decomposer_calls == 0
    direct, _ = run_mode(FOUR_EPISODE_SPECS, "direct")
    assert episodes == direct


def test_tau_one_equals_decompose_all():
    selective, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=1.0)
    decompose_all, _ = run_mode(FOUR_EPISODE_SPECS, "decompose_all")
    assert all(ep["gate"] == "second_guessed" for ep in selective)
    assert selective == decompose_all


def test_gate_tie_is_second_guessed():
    specs = [QSpec("q1", "is it wet?", "yes", "yes", 0.5)]
    engine, backend = make_engine(specs)
    # Force the initial confidence to be exactly tau.
    cfg = PipelineConfig(mode="selective", tau=math.exp(math.log(0.5)))
    episodes = run_records(spec_questions(specs), cfg, engine)
    assert episodes[0]["gate"] == "second_guessed"


def test_low_confidence_flip_raises_accuracy_by_one_quarter():
    # q3 is wrong at confidence 0.2 and its recomposition answers correctly.
    episodes, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.3)
    report = evaluation.compute_report(log_columns(episodes))
    assert report.accuracy_after - report.accuracy_before == 0.25
    assert [ep["gate"] for ep in episodes] == ["kept", "kept", "second_guessed", "kept"]


def test_call_count_law():
    specs = FOUR_EPISODE_SPECS
    episodes, engine = run_mode(specs, "selective", tau=0.3)
    second_guessed = sum(1 for ep in episodes if ep["gate"] == "second_guessed")
    assert engine.decomposer_calls == second_guessed
    assert engine.recomposer_calls == len(specs) + 2 * second_guessed


def test_percentile_threshold_two_phase():
    episodes, engine = run_mode(
        FOUR_EPISODE_SPECS, "selective", tau_percentile=50.0
    )
    # Confidences {0.9, 0.8, 0.2, 0.7}: the 50th nearest-rank value is 0.7,
    # so q3 (0.2) and q4 (0.7, a tie) are second-guessed.
    gates = {ep["id"]: ep["gate"] for ep in episodes}
    assert gates == {
        "q1": "kept",
        "q2": "kept",
        "q3": "second_guessed",
        "q4": "second_guessed",
    }
    # Initial answers are reused, not recomputed, in phase two.
    assert engine.recomposer_calls == 4 + 2 * 2


def test_subquestion_newline_truncation_and_routing():
    specs = [QSpec("q1", "is it red?", "yes", "no", 0.1, sub_q="is it a rose?")]
    entries = [
        MockEntry(
            "Reasoning Question: is it red? Perception Question:",
            "decomposer",
            "is it a rose?\nReasoning Question: leftover",
            (-0.2,),
        )
    ]
    engine, backend = make_engine(specs, extra_entries=entries)
    cfg = PipelineConfig(mode="decompose_all")
    episodes = run_records(spec_questions(specs), cfg, engine)
    assert episodes[0]["subquestion"] == "is it a rose?"
    assert not episodes[0]["malformed_subquestion"]
    # The subquestion is answered by the recomposer, not the decomposer.
    roles = [call.role for call in backend.call_log if "rose" in call.prompt]
    assert roles.count("recomposer") >= 1


def test_gibberish_subquestion_flagged_but_used():
    specs = [QSpec("q1", "is it red?", "yes", "no", 0.1)]
    entries = [
        MockEntry(
            "Reasoning Question: is it red? Perception Question:",
            "decomposer",
            "sky blue sky the",
            (-0.2,),
        ),
        MockEntry("Question: sky blue sky the Short Answer:", "recomposer", "yes", (-0.2,)),
        MockEntry("Context: sky blue sky the?", "recomposer", "yes", (-0.2,)),
    ]
    engine, _ = make_engine(specs, extra_entries=entries)
    episodes = run_records(
        spec_questions(specs), PipelineConfig(mode="decompose_all"), engine
    )
    ep = episodes[0]
    assert ep["malformed_subquestion"]
    assert ep["subquestion"] == "sky blue sky the"
    assert ep["final"]["text"] == "yes"
    assert ep["correct_after"]


def test_empty_subquestion_skips_subanswer():
    specs = [QSpec("q1", "is it red?", "yes", "no", 0.1)]
    entries = [
        MockEntry(
            "Reasoning Question: is it red? Perception Question:",
            "decomposer",
            "\nReasoning Question: junk",
            (-0.2,),
        ),
        MockEntry("Context: ? Question: is it red?", "recomposer", "yes", (-0.2,)),
    ]
    engine, backend = make_engine(specs, extra_entries=entries)
    episodes = run_records(
        spec_questions(specs), PipelineConfig(mode="decompose_all"), engine
    )
    ep = episodes[0]
    assert ep["subanswer"] is None
    assert ep["malformed_subquestion"]
    # Chain is initial + subquestion + recompose: no sub-answer call.
    assert engine.recomposer_calls == 2
    assert engine.decomposer_calls == 1


def oracle_specs():
    return [
        QSpec("q1", "can i eat this banana?", "yes", "no", 0.4),
        QSpec("q2", "is it cold?", "no", "no", 0.9),
    ]


def oracle_questions():
    questions = []
    for q in spec_questions(oracle_specs()):
        questions.append(
            VisualQuestion(
                id=q.id,
                image=q.image,
                question=q.question,
                answers=q.answers,
                oracle_sub_qas=(
                    SubQA("is the banana yellow", "yes"),
                    SubQA("is the banana bruised", "no"),
                ),
            )
        )
    return questions


def oracle_engine():
    # Catch-all recomposer entries for oracle recompositions and sub-answers.
    return engine_over(
        spec_entries(oracle_specs())
        + [
            MockEntry("Context: ", "recomposer", "yes", (-0.3,)),
            MockEntry("Question: ", "recomposer", "maybe", (-0.5,)),
        ]
    )


def test_oracle_oracle_uses_human_subqas_verbatim():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_oracle")
    episodes = run_records(oracle_questions(), cfg, engine)
    assert all(ep["gate"] == "second_guessed" for ep in episodes)
    assert episodes[0]["subanswer_provenance"] == "oracle"
    recompose_prompts = [
        call.prompt for call in backend.call_log if "#recompose" not in call.prompt and "Context: is the banana yellow" in call.prompt
    ]
    assert any(
        "Context: is the banana yellow? yes. is the banana bruised? no." in prompt
        for prompt in recompose_prompts
    )
    assert engine.decomposer_calls == 0


def test_oracle_no_answer_prompt_has_no_subanswers():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_no_answer")
    episodes = run_records(oracle_questions(), cfg, engine)
    assert episodes[0]["subanswer"] is None
    prompt = next(
        call.prompt
        for call in backend.call_log
        if "Context: is the banana yellow" in call.prompt
    )
    assert "yes." not in prompt.split("rain", 1)[1]
    assert "Context: is the banana yellow? is the banana bruised? Question:" in prompt


def test_oracle_scrambled_deterministic():
    prompts_by_run = []
    for _ in range(2):
        engine, backend = oracle_engine()
        cfg = PipelineConfig(mode="oracle_scrambled", seed=7)
        run_records(oracle_questions(), cfg, engine)
        prompts_by_run.append(
            sorted(call.prompt for call in backend.call_log)
        )
    assert prompts_by_run[0] == prompts_by_run[1]


def test_oracle_scrambled_preserves_tokens():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_scrambled", seed=7)
    episodes = run_records(oracle_questions(), cfg, engine)
    tokens = sorted(episodes[0]["subquestion"].split())
    assert tokens == sorted(
        "is the banana yellow yes is the banana bruised no".split()
    )


def test_oracle_self_answer_replaces_answers():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_self_answer")
    episodes = run_records(oracle_questions(), cfg, engine)
    ep = episodes[0]
    assert ep["subanswer_provenance"] == "model"
    # Both sub-answers come from the catch-all recomposer entry.
    assert ep["subanswer"] == "maybe | maybe"


def test_oracle_skips_questions_without_subqas(tmp_path):
    engine, _ = oracle_engine()
    questions = oracle_questions() + spec_questions(
        [QSpec("q3", "is it wet?", "no", "no", 0.5)]
    )
    cfg = PipelineConfig(mode="oracle_oracle")
    sink = tmp_path / "episodes.jsonl"
    summary = pipeline.run(questions, cfg, engine, sink)
    assert len(read_records(sink)) == summary.episodes == 2
    assert summary.skipped_missing_oracle == 1


def test_episode_failure_is_isolated():
    specs = FOUR_EPISODE_SPECS[:2]
    # Remove q2's initial entry so its chain fails with a script miss.
    engine, _ = engine_over(
        [e for e in spec_entries(specs) if "is it raining?" not in e.prompt_contains]
    )
    cfg = PipelineConfig(mode="direct")
    episodes = run_records(spec_questions(specs), cfg, engine)
    assert len(episodes) == 2
    assert "failed" not in episodes[0]
    assert episodes[1]["failed"] is True


def test_run_resume_no_duplicates(tmp_path):
    sink = tmp_path / "episodes.jsonl"
    questions = spec_questions(FOUR_EPISODE_SPECS)
    cfg = PipelineConfig(mode="decompose_all")

    engine1, _ = make_engine(FOUR_EPISODE_SPECS)
    pipeline.run(questions[:2], cfg, engine1, sink)  # interrupted run

    engine2, _ = make_engine(FOUR_EPISODE_SPECS)
    summary = pipeline.run(questions, cfg, engine2, sink)
    assert pipeline.read_episode_log(sink).ids == ["q1", "q2", "q3", "q4"]
    assert summary.new_episodes == 2
    # Only the two missing questions hit the backend on resume.
    assert engine2.recomposer_calls == 2 * 3


def test_run_deterministic_bytes(tmp_path):
    questions = spec_questions(FOUR_EPISODE_SPECS)
    cfg = PipelineConfig(mode="selective", tau=0.3, seed=11, concurrency=3)
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        engine, _ = make_engine(FOUR_EPISODE_SPECS)
        sink = tmp_path / name
        pipeline.run(questions, cfg, engine, sink)
        logs.append(sink.read_bytes())
    assert logs[0] == logs[1]


def test_concurrency_bound_respected(tmp_path):
    specs = [
        QSpec(f"q{i}", f"is item {i} heavy?", "yes", "yes", 0.9) for i in range(20)
    ]
    engine, backend = make_engine(specs)
    cfg = PipelineConfig(mode="direct", concurrency=4)
    pipeline.run(spec_questions(specs), cfg, engine, tmp_path / "log.jsonl")
    assert backend.max_in_flight <= 4


def test_episode_schema_field_order():
    episodes, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.3)
    obj = episodes[0]
    assert list(obj) == [
        "id",
        "initial",
        "gate",
        "subquestion",
        "subanswer",
        "subanswer_provenance",
        "final",
        "correct_before",
        "correct_after",
        "malformed_subquestion",
    ]
    assert list(obj["initial"]) == ["text", "confidence"]


CHAIN_SPECS = [
    QSpec("q1", "is the sky blue?", "yes", "yes", 0.9, final_text="yes"),
    QSpec("q2", "is it raining?", "no", "yes", 0.2, final_text="no"),
    QSpec("q3", "is the cat asleep?", "yes", "yes", 0.7, final_text="yes"),
    QSpec("q4", "is the door open?", "no", "no", 0.4, final_text="no"),
]
CHAIN_TAU = 0.5


def chain_fixture(drop_recompose_of=None):
    """Questions with two oracle sub-QAs each, and a mock whose recompose
    entry for a question matches only that question's recompose prompt."""
    questions, entries = [], []
    for spec, q in zip(CHAIN_SPECS, spec_questions(CHAIN_SPECS)):
        sub_qas = (SubQA(f"is {q.id} near", "yes"), SubQA(f"is {q.id} far", "no"))
        questions.append(replace(q, oracle_sub_qas=sub_qas))
        if q.id != drop_recompose_of:
            entries.append(
                MockEntry(f"Question: {q.question} Short answer:", "recomposer",
                          spec.final_text, (-0.2,))
            )
        entries.append(
            MockEntry(f"Question: {q.question} Short Answer:", "recomposer",
                      spec.initial_text, (math.log(spec.initial_conf),))
        )
    entries.append(MockEntry("Short Answer:", "recomposer", "yes", (-0.3,)))
    entries.append(MockEntry("Perception Question:", "decomposer", "is it lit?", (-0.4,)))
    return questions, MockBackend(entries)


def expected_chain(mode, spec):
    if mode == "direct" or (mode == "selective" and spec.initial_conf > CHAIN_TAU):
        return ["initial"]
    if mode == "oracle_self_answer":
        return ["initial", "suba0", "suba1", "recompose"]
    if mode in pipeline.ORACLE_MODES:
        return ["initial", "recompose"]
    return ["initial", "subq", "suba0", "recompose"]


def run_chain(sink, mode, concurrency, drop_recompose_of=None, failures=1, **threshold):
    """Run ``mode`` over the chain fixture into ``sink``, selective at
    CHAIN_TAU unless given a threshold, each request failing with transport
    errors as FlakyBackend's ``failures_before_success`` says (by default
    once). Returns the RunSummary and the FlakyBackend, whose inner backend
    is a RecordingBackend."""
    questions, mock = chain_fixture(drop_recompose_of)
    flaky = FlakyBackend(RecordingBackend(mock), failures_before_success=failures)
    if mode == "selective" and not threshold:
        threshold = {"tau": CHAIN_TAU}
    cfg = PipelineConfig(mode=mode, concurrency=concurrency, **threshold)
    engine = Engine(recomposer=flaky, decomposer=flaky)
    return pipeline.run(questions, cfg, engine, sink), flaky


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("mode", pipeline.MODES)
def test_every_mode_runs_one_chain(tmp_path, mode, concurrency):
    chains = {spec.qid: expected_chain(mode, spec) for spec in CHAIN_SPECS}
    summary, flaky = run_chain(tmp_path / "all.jsonl", mode, concurrency)
    episodes = read_records(tmp_path / "all.jsonl")
    stages = {qid: [] for qid in chains}
    for call in flaky.inner.call_log:
        qid, stage = call.request_id.split("#")
        stages[qid].append(stage)
    assert stages == chains
    assert not any(ep.get("failed", False) for ep in episodes)
    # One injected retry per call: the run's retries count its calls.
    assert summary.retries == summary.backend_calls == sum(map(len, chains.values()))

    run_chain(tmp_path / "dropped.jsonl", mode, concurrency, drop_recompose_of="q2")
    episodes = read_records(tmp_path / "dropped.jsonl")
    failed = {ep["id"] for ep in episodes if ep.get("failed", False)}
    assert failed == ({"q2"} if "recompose" in chains["q2"] else set())


# The sha256 of the chain fixture's episodes.jsonl in every mode. Each is
# the digest of the log written by the code that kept a "retries" key in
# every record (the two-phase scheduler's bytes, one injected retry per
# call), with only its ``, "retries": N`` bytes removed: dropping the key
# moved no other byte.
PINNED_CHAIN_LOGS = [
    ("direct", {}, "3eb12afa35d8b3081ada0a30503b848e9ff61c4c05a14ac3e84a8499c82256fe"),
    ("decompose_all", {}, "94ca8ae5f3c26429deaf5c64258552c2fc9fe3c407cad81148d19188c2c9deb5"),
    ("selective", {}, "a54d23a5f373ad6f2bc7a331b5d48682d9b225bd1c28bfb5cd71240fcefefb9f"),
    ("selective", {"tau_percentile": 75.0},
     "5173dea339a74841697c80dad5cfd617b0b5645905b5baf69076080253fe4cdf"),
    ("oracle_oracle", {}, "809ff7e696b8e7cbdee71cc050fa86ba71b3388ee66523c835944bc0fa0a71b9"),
    ("oracle_self_answer", {},
     "586eb474c9e55ddd1997025f160a0fabe7d9bfa36f660471cd7623c0e0705a7a"),
    ("oracle_no_answer", {}, "21a27d752017dd70064c3e6a56af7ca846295f757bd010944a3f043b5e2a268d"),
    ("oracle_scrambled", {}, "ea3bb27db6f37c7d68437320468074eed45d8b2f1e9009035752bce60cb9335c"),
]


@pytest.mark.parametrize(
    "mode, threshold, digest",
    PINNED_CHAIN_LOGS,
    ids=[mode + "_percentile" * bool(t) for mode, t, _ in PINNED_CHAIN_LOGS],
)
def test_chain_log_pinned_at_every_concurrency(tmp_path, mode, threshold, digest):
    calls = []
    for concurrency in (1, 4):
        sink = tmp_path / f"episodes{concurrency}.jsonl"
        _, flaky = run_chain(sink, mode, concurrency, **threshold)
        assert hashlib.sha256(sink.read_bytes()).hexdigest() == digest
        calls.append(collections.Counter(flaky.inner.call_log))
    # The same requests (id, role, prompt, image, params), in any order.
    assert calls[0] == calls[1]


CHAIN_REQUESTS = [
    f"{spec.qid}#{stage}"
    for spec in CHAIN_SPECS
    for stage in ("initial", "subq", "suba0", "suba1", "recompose")
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=st.sampled_from([(mode, t) for mode, t, _ in PINNED_CHAIN_LOGS]),
    drop_recompose_of=st.sampled_from([None, "q2"]),
    concurrency=st.sampled_from([1, 4]),
    faults=st.dictionaries(
        st.sampled_from(CHAIN_REQUESTS), st.integers(0, DEFAULT_RETRY_ATTEMPTS - 1)
    ),
)
def test_transport_faults_change_no_log_byte(
    tmp_path, config, drop_recompose_of, concurrency, faults
):
    """Up to attempts - 1 transport faults at any calls leave episodes.jsonl
    byte-identical to a fault-free run, and the run's retries count them."""
    mode, threshold = config
    sink = tmp_path / "episodes.jsonl"
    logs = []
    for failures in (0, faults):
        sink.unlink(missing_ok=True)
        summary, flaky = run_chain(
            sink, mode, concurrency, drop_recompose_of, failures, **threshold
        )
        logs.append(sink.read_bytes())
    assert logs[0] == logs[1]
    called = {call.request_id for call in flaky.inner.call_log}
    assert flaky.injected == {r: n for r, n in faults.items() if n and r in called}
    # A call that fails in the end returns no result, so its faults count in
    # no total: with its recompose entry dropped, q2's recompose is that call.
    failed_call = f"{drop_recompose_of}#recompose"
    assert summary.retries == sum(n for r, n in flaky.injected.items() if r != failed_call)


def test_no_barrier_without_percentile_tau():
    """q1's initial call waits for q2's recompose call, which comes only if
    q2's whole chain runs while q1's first call is in flight."""
    questions, mock = chain_fixture()
    q2_recomposed = threading.Event()
    waits = []

    class Waiting:
        def complete(self, request, role):
            if request.request_id == "q1#initial":
                waits.append(q2_recomposed.wait(timeout=2))
            result = mock.complete(request, role)
            if request.request_id == "q2#recompose":
                q2_recomposed.set()
            return result

    engine = Engine(recomposer=Waiting(), decomposer=Waiting())
    cfg = PipelineConfig(mode="decompose_all", concurrency=2)
    episodes = run_records(questions[:2], cfg, engine)
    assert waits == [True]
    assert not any(ep.get("failed", False) for ep in episodes)


# --- episode log reader ---------------------------------------------------

# A valid record: failed (with confidence 0, as a run writes it) or a
# confidence in (0, 1]; a gate; correct_before; correct_after.
LOG_ROWS = st.tuples(
    st.one_of(st.just(None), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    st.sampled_from(["kept", "second_guessed"]),
    st.booleans(),
    st.booleans(),
)

# Fields that make a record no episode, and lines that hold no record.
BAD_FIELDS = [
    {"id": 5},
    {"id": None},
    {"failed": "false"},
    {"failed": 1},
    {"failed": None},
    {"initial": "yes"},
    {"initial": {}},
    {"initial": {"confidence": "0.5"}},
    {"initial": {"confidence": True}},
    {"initial": {"confidence": 1.5}},
    {"initial": {"confidence": -0.5}},
    {"initial": {"confidence": 10**400}},
    {"initial": {"confidence": 0}},
    {"gate": "maybe"},
    {"gate": ["kept"]},
    {"correct_before": 1},
    {"correct_after": None},
]
NON_RECORDS = ["[1, 2]", "5", '"x"', "null", "{}", NESTED_TOO_DEEP, LONG_INTEGER,
               f'"x{NOT_UTF8}"']
LOG_NUMBERS = itertools.count()


def log_record(eid, confidence, gate, before, after) -> dict:
    record = {
        "id": eid,
        "initial": {"text": "", "confidence": 0.0 if confidence is None else confidence},
        "gate": gate,
        "correct_before": before,
        "correct_after": after,
    }
    if confidence is None:
        record["failed"] = True
    return record


@st.composite
def episode_logs(draw):
    """The text of a log of valid records, blank lines among them, and at
    most one corrupted line anywhere: torn, two values on one line, one or
    two wrong types or values, a repeated id, a NaN confidence, or a \\ud
    escape in a string, which may leave an unpaired surrogate (a log's
    strings are not checked for one)."""
    rows = draw(st.lists(LOG_ROWS, max_size=12))
    records = [log_record(f"e{i}", *row) for i, row in enumerate(rows)]
    lines = [json.dumps(record) for record in records]
    kind = draw(st.sampled_from(
        [None, "torn", "two_values", "field", "non_record", "duplicate", "nan", "surrogate"]
    ))
    if kind and lines:
        at = draw(st.integers(0, len(lines) - 1))
        record, line = records[at], lines[at]
        if kind == "torn":
            lines[at] = line[: draw(st.integers(1, len(line) - 1))]
        elif kind == "two_values":
            lines[at] = line + " " + line
        elif kind == "field":
            for bad in draw(st.lists(st.sampled_from(BAD_FIELDS), min_size=1, max_size=2)):
                record = {**record, **bad}
            lines[at] = json.dumps(record)
        elif kind == "non_record":
            lines[at] = draw(st.sampled_from(NON_RECORDS))
        elif kind == "duplicate":
            lines[at] = json.dumps({**record, "id": f"e{draw(st.integers(0, len(lines) - 1))}"})
        elif kind == "surrogate":
            escape = draw(st.sampled_from(UNPAIRED + NOT_UNPAIRED))
            field = draw(st.sampled_from(['"id": "', '"text": "']))
            lines[at] = line.replace(field, field + escape, 1)
        else:
            lines[at] = json.dumps({**record, "initial": {"text": "", "confidence": math.nan}})
    text = "".join(draw(st.sampled_from(["", "\n", "  \n"])) + line + "\n" for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def assert_reads_like_oracle(path):
    """read_episode_log gives the oracle's columns, or raises its error."""
    try:
        expected = read_log_by_line(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as raised:
            pipeline.read_episode_log(path)
        assert str(raised.value) == str(exc)
        return
    log = pipeline.read_episode_log(path)
    for field in fields(log):
        got, want = getattr(log, field.name), getattr(expected, field.name)
        if field.name == "ids":
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(episode_logs())
def test_read_episode_log_equals_line_by_line_oracle(tmp_path, monkeypatch, text):
    # Three lines a chunk: a bad line lands first, inside or last in a
    # chunk, and the last chunk is often partly full.
    monkeypatch.setattr(pipeline, "CHUNK_LINES", 3)
    path = tmp_path / f"episodes{next(LOG_NUMBERS)}.jsonl"
    path.write_bytes(raw(text))
    assert_reads_like_oracle(path)


def test_read_episode_log_names_every_bad_line(tmp_path, monkeypatch):
    """Every bad field and line, at every line of a log of three chunks of
    three, failed and scorable records alternating, the last one in the old
    schema, which kept each record's transport retries."""
    monkeypatch.setattr(pipeline, "CHUNK_LINES", 3)
    records = [
        log_record(f"e{i}", None if i % 2 else 0.5, "kept", True, False) for i in range(7)
    ]
    records.append({
        "id": "e7",
        "initial": {"text": "no", "confidence": 0.25},
        "gate": "second_guessed",
        "subquestion": "is it lit?",
        "subanswer": "yes",
        "subanswer_provenance": "model",
        "final": {"text": "yes", "confidence": 0.8},
        "correct_before": False,
        "correct_after": True,
        "malformed_subquestion": False,
        "retries": 2,
    })
    nan = {"initial": {"text": "", "confidence": math.nan}}
    for at, record in enumerate(records):
        # Each bad field alone, and with the one listed before it: a record
        # that breaks two rules is named by the rule checked first.
        bad_lines = [json.dumps({**record, **bad}) for bad in BAD_FIELDS + [nan]]
        bad_lines += [
            json.dumps({**record, **first, **second})
            for first, second in zip(BAD_FIELDS, BAD_FIELDS[1:])
        ]
        for bad_line in bad_lines + NON_RECORDS:
            lines = [json.dumps(r) for r in records]
            lines[at] = bad_line
            path = tmp_path / f"episodes{next(LOG_NUMBERS)}.jsonl"
            path.write_bytes(raw("\n".join(lines) + "\n"))
            assert_reads_like_oracle(path)


def test_read_episode_log_names_a_bad_line_before_a_byte_not_utf8(tmp_path):
    """The log decodes ahead of the lines a chunk takes, and the byte's line
    is found by counting newlines: on the first and the last line of a
    chunk, and on a last line with no newline. A bad line before the byte's
    line, in its chunk or the one before, is still named first."""
    for position in (1, 31, 256, 257, 300):
        lines = [json.dumps(log_record(f"e{i}", 0.5, "kept", True, True)) for i in range(300)]
        lines[position - 1] = f'"x{NOT_UTF8}"'
        path = tmp_path / "episodes.jsonl"
        end = "\n" if position < len(lines) else ""
        path.write_bytes(raw("\n".join(lines) + end))
        with pytest.raises(DatasetError, match=rf"episodes.jsonl:{position}: byte 0xff is not UTF-8$"):
            pipeline.read_episode_log(path)
        if position > 1:
            lines[position - 2] = lines[0]
            path.write_bytes(raw("\n".join(lines) + end))
            with pytest.raises(DatasetError, match=rf"episodes.jsonl:{position - 1}: duplicate id"):
                pipeline.read_episode_log(path)


def test_read_episode_log_keeps_no_dict_per_episode(tmp_path):
    """20,000 episodes read with a traced peak under 12 MiB; a dict kept per
    episode would take about 2 KiB each."""
    path = tmp_path / "episodes.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(20_000):
            outcome = pipeline.AnswerOutcome(text="yes", confidence=(i + 1) / 20_001)
            record = pipeline.EpisodeRecord(
                id=f"q{i:06d}",
                initial=outcome,
                gate="second_guessed",
                subquestion="is there a cat in the picture?",
                subanswer="yes",
                subanswer_provenance="model",
                final=outcome,
                correct_before=i % 2 == 0,
                correct_after=i % 3 == 0,
            )
            fh.write(record.to_json() + "\n")
    tracemalloc.start()
    try:
        log = pipeline.read_episode_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.ids) == log.confidence.size == 20_000
    assert peak < 12 * 2**20
