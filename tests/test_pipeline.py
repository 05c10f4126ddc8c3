import json
import math
from dataclasses import replace

import pytest

from conftest import (
    FOUR_EPISODE_SPECS,
    FlakyBackend,
    QSpec,
    RecordingBackend,
    spec_backend,
    spec_questions,
)
from secondguess import evaluation, pipeline
from secondguess.backend import MockBackend, MockEntry
from secondguess.dataset import VisualQuestion
from secondguess.pipeline import ConfigError, Engine, PipelineConfig
from secondguess.prompts import SubQA


def make_engine(specs, extra_entries=(), **kwargs):
    mock = spec_backend(specs)
    mock.entries = list(extra_entries) + mock.entries
    backend = RecordingBackend(mock)
    return Engine(recomposer=backend, decomposer=backend, **kwargs), backend


def run_mode(specs, mode, **cfg_kwargs):
    engine, backend = make_engine(specs)
    cfg = PipelineConfig(mode=mode, **cfg_kwargs)
    episodes = pipeline.run(spec_questions(specs), cfg, engine)
    return episodes, engine, backend


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
    episodes, engine, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.0)
    assert all(ep.gate == "kept" for ep in episodes)
    assert engine.decomposer_calls == 0
    direct, _, _ = run_mode(FOUR_EPISODE_SPECS, "direct")
    assert [ep.to_obj() for ep in episodes] == [ep.to_obj() for ep in direct]


def test_tau_one_equals_decompose_all():
    selective, _, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=1.0)
    decompose_all, _, _ = run_mode(FOUR_EPISODE_SPECS, "decompose_all")
    assert all(ep.gate == "second_guessed" for ep in selective)
    assert [ep.to_obj() for ep in selective] == [ep.to_obj() for ep in decompose_all]


def test_gate_tie_is_second_guessed():
    specs = [QSpec("q1", "is it wet?", "yes", "yes", 0.5)]
    engine, backend = make_engine(specs)
    # Force the initial confidence to be exactly tau.
    cfg = PipelineConfig(mode="selective", tau=math.exp(math.log(0.5)))
    episodes = pipeline.run(spec_questions(specs), cfg, engine)
    assert episodes[0].gate == "second_guessed"


def test_low_confidence_flip_raises_accuracy_by_one_quarter():
    # q3 is wrong at confidence 0.2 and its recomposition answers correctly.
    episodes, _, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.3)
    objs = [ep.to_obj() for ep in episodes]
    before = evaluation.accuracy(objs, "before")
    after = evaluation.accuracy(objs, "after")
    assert after - before == 0.25
    assert [ep.gate for ep in episodes] == ["kept", "kept", "second_guessed", "kept"]


def test_call_count_law():
    specs = FOUR_EPISODE_SPECS
    episodes, engine, _ = run_mode(specs, "selective", tau=0.3)
    second_guessed = sum(1 for ep in episodes if ep.gate == "second_guessed")
    assert engine.decomposer_calls == second_guessed
    assert engine.recomposer_calls == len(specs) + 2 * second_guessed


def test_percentile_threshold_two_phase():
    episodes, engine, _ = run_mode(
        FOUR_EPISODE_SPECS, "selective", tau_percentile=50.0
    )
    # Confidences {0.9, 0.8, 0.2, 0.7}: the 50th nearest-rank value is 0.7,
    # so q3 (0.2) and q4 (0.7, a tie) are second-guessed.
    gates = {ep.id: ep.gate for ep in episodes}
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
    episodes = pipeline.run(spec_questions(specs), cfg, engine)
    assert episodes[0].subquestion == "is it a rose?"
    assert not episodes[0].malformed_subquestion
    # The subquestion is answered by the recomposer, not the decomposer.
    roles = [role for _, role, prompt in backend.call_log if "rose" in prompt]
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
    episodes = pipeline.run(
        spec_questions(specs), PipelineConfig(mode="decompose_all"), engine
    )
    ep = episodes[0]
    assert ep.malformed_subquestion
    assert ep.subquestion == "sky blue sky the"
    assert ep.final.text == "yes"
    assert ep.correct_after


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
    episodes = pipeline.run(
        spec_questions(specs), PipelineConfig(mode="decompose_all"), engine
    )
    ep = episodes[0]
    assert ep.subanswer is None
    assert ep.malformed_subquestion
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
    mock = spec_backend(oracle_specs())
    # Catch-all recomposer entries for oracle recompositions and sub-answers.
    mock.entries.extend(
        [
            MockEntry("Context: ", "recomposer", "yes", (-0.3,)),
            MockEntry("Question: ", "recomposer", "maybe", (-0.5,)),
        ]
    )
    backend = RecordingBackend(mock)
    return Engine(recomposer=backend, decomposer=backend), backend


def test_oracle_oracle_uses_human_subqas_verbatim():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_oracle")
    episodes = pipeline.run(oracle_questions(), cfg, engine)
    assert all(ep.gate == "second_guessed" for ep in episodes)
    assert episodes[0].subanswer_provenance == "oracle"
    recompose_prompts = [
        prompt for _, _, prompt in backend.call_log if "#recompose" not in prompt and "Context: is the banana yellow" in prompt
    ]
    assert any(
        "Context: is the banana yellow? yes. is the banana bruised? no." in prompt
        for prompt in recompose_prompts
    )
    assert engine.decomposer_calls == 0


def test_oracle_no_answer_prompt_has_no_subanswers():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_no_answer")
    episodes = pipeline.run(oracle_questions(), cfg, engine)
    assert episodes[0].subanswer is None
    prompt = next(
        prompt
        for _, _, prompt in backend.call_log
        if "Context: is the banana yellow" in prompt
    )
    assert "yes." not in prompt.split("rain", 1)[1]
    assert "Context: is the banana yellow? is the banana bruised? Question:" in prompt


def test_oracle_scrambled_deterministic():
    prompts_by_run = []
    for _ in range(2):
        engine, backend = oracle_engine()
        cfg = PipelineConfig(mode="oracle_scrambled", seed=7)
        pipeline.run(oracle_questions(), cfg, engine)
        prompts_by_run.append(
            sorted(prompt for _, _, prompt in backend.call_log)
        )
    assert prompts_by_run[0] == prompts_by_run[1]


def test_oracle_scrambled_preserves_tokens():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_scrambled", seed=7)
    episodes = pipeline.run(oracle_questions(), cfg, engine)
    tokens = sorted(episodes[0].subquestion.split())
    assert tokens == sorted(
        "is the banana yellow yes is the banana bruised no".split()
    )


def test_oracle_self_answer_replaces_answers():
    engine, backend = oracle_engine()
    cfg = PipelineConfig(mode="oracle_self_answer")
    episodes = pipeline.run(oracle_questions(), cfg, engine)
    ep = episodes[0]
    assert ep.subanswer_provenance == "model"
    # Both sub-answers come from the catch-all recomposer entry.
    assert ep.subanswer == "maybe | maybe"


def test_oracle_skips_questions_without_subqas():
    engine, _ = oracle_engine()
    questions = oracle_questions() + spec_questions(
        [QSpec("q3", "is it wet?", "no", "no", 0.5)]
    )
    cfg = PipelineConfig(mode="oracle_oracle")
    summary = pipeline.RunSummary()
    episodes = pipeline.run(questions, cfg, engine, summary)
    assert len(episodes) == 2
    assert summary.skipped_missing_oracle == 1


def test_episode_failure_is_isolated():
    specs = FOUR_EPISODE_SPECS[:2]
    engine, backend = make_engine(specs)
    # Remove q2's initial entry so its chain fails with a script miss.
    backend.inner.entries = [
        e for e in backend.inner.entries if "is it raining?" not in e.prompt_contains
    ]
    cfg = PipelineConfig(mode="direct")
    episodes = pipeline.run(spec_questions(specs), cfg, engine)
    assert len(episodes) == 2
    assert not episodes[0].failed
    assert episodes[1].failed
    assert episodes[1].to_obj()["failed"] is True


def test_run_batch_resume_no_duplicates(tmp_path):
    sink = tmp_path / "episodes.jsonl"
    questions = spec_questions(FOUR_EPISODE_SPECS)
    cfg = PipelineConfig(mode="decompose_all")

    engine1, _ = make_engine(FOUR_EPISODE_SPECS)
    pipeline.run_batch(questions[:2], cfg, engine1, sink)  # interrupted run

    engine2, _ = make_engine(FOUR_EPISODE_SPECS)
    summary = pipeline.run_batch(questions, cfg, engine2, sink)
    episodes = pipeline.read_episode_log(sink)
    assert [ep["id"] for ep in episodes] == ["q1", "q2", "q3", "q4"]
    assert summary.new_episodes == 2
    # Only the two missing questions hit the backend on resume.
    assert engine2.recomposer_calls == 2 * 3


def test_run_batch_deterministic_bytes(tmp_path):
    questions = spec_questions(FOUR_EPISODE_SPECS)
    cfg = PipelineConfig(mode="selective", tau=0.3, seed=11, concurrency=3)
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        engine, _ = make_engine(FOUR_EPISODE_SPECS)
        sink = tmp_path / name
        pipeline.run_batch(questions, cfg, engine, sink)
        logs.append(sink.read_bytes())
    assert logs[0] == logs[1]


def test_concurrency_bound_respected(tmp_path):
    specs = [
        QSpec(f"q{i}", f"is item {i} heavy?", "yes", "yes", 0.9) for i in range(20)
    ]
    engine, backend = make_engine(specs)
    cfg = PipelineConfig(mode="direct", concurrency=4)
    pipeline.run_batch(spec_questions(specs), cfg, engine, tmp_path / "log.jsonl")
    assert backend.max_in_flight <= 4


def test_episode_schema_field_order():
    episodes, _, _ = run_mode(FOUR_EPISODE_SPECS, "selective", tau=0.3)
    obj = episodes[0].to_obj()
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
        "retries",
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


def run_chain(mode, concurrency, drop_recompose_of=None):
    questions, mock = chain_fixture(drop_recompose_of)
    recorder = RecordingBackend(mock)
    # Every request fails once with a transport error before it succeeds.
    flaky = FlakyBackend(recorder, failures_before_success=1)
    threshold = {"tau": CHAIN_TAU} if mode == "selective" else {}
    cfg = PipelineConfig(mode=mode, concurrency=concurrency, **threshold)
    engine = Engine(recomposer=flaky, decomposer=flaky)
    return pipeline.run(questions, cfg, engine), recorder


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("mode", pipeline.MODES)
def test_every_mode_runs_one_chain(mode, concurrency):
    chains = {spec.qid: expected_chain(mode, spec) for spec in CHAIN_SPECS}
    episodes, recorder = run_chain(mode, concurrency)
    stages = {qid: [] for qid in chains}
    for request_id, _, _ in recorder.call_log:
        qid, stage = request_id.split("#")
        stages[qid].append(stage)
    assert stages == chains
    assert not any(ep.failed for ep in episodes)
    # One injected retry per call: an episode's retries count its calls.
    assert {ep.id: ep.retries for ep in episodes} == {
        qid: len(chain) for qid, chain in chains.items()
    }

    episodes, _ = run_chain(mode, concurrency, drop_recompose_of="q2")
    failed = {ep.id for ep in episodes if ep.failed}
    assert failed == ({"q2"} if "recompose" in chains["q2"] else set())
