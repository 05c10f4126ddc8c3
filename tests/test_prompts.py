from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secondguess import prompts
from secondguess.prompts import (
    SubQA,
    perturb_scramble,
    perturb_strip_answers,
    render_decompose,
    render_direct_qa,
    render_recompose,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "prompts"


@pytest.mark.parametrize("kind", prompts.TEMPLATES)
def test_templates_match_golden_files(kind):
    golden = (GOLDEN_DIR / f"{kind}.txt").read_bytes().decode("utf-8")
    assert prompts.TEMPLATES[kind] == golden


def test_render_direct_qa():
    assert render_direct_qa("is it raining?") == "Question: is it raining? Short Answer:"


def test_render_direct_qa_preserves_braces():
    assert render_direct_qa("what is {x}?") == "Question: what is {x}? Short Answer:"


def test_render_decompose_default():
    rendered = render_decompose("is it cold outside?", "decompose_default")
    assert rendered == (
        "Reasoning Question: is the banana ripe enough to eat? "
        "Perception Question: is the banana yellow?\n"
        "Reasoning Question: is it cold outside? "
        "Perception Question: are any people wearing jackets?\n"
        "Reasoning Question: is it cold outside? Perception Question:"
    )


def test_render_decompose_galactica():
    rendered = render_decompose(
        "What country is this airline headquartered in?",
        "decompose_galactica_instruct",
    )
    assert "### Instruction:" in rendered
    assert rendered.endswith("### Response:")
    assert (
        "Write a simpler perception question that can help to answer: "
        "What country is this airline headquartered in?" in rendered
    )


def test_render_decompose_preserves_whitespace():
    rendered = render_decompose("is it wet?  ", "decompose_default")
    assert "Reasoning Question: is it wet?   Perception Question:" in rendered


def test_render_recompose_single():
    rendered = render_recompose("what weather is likely", (SubQA("is the sky blue", "no"),))
    assert rendered == prompts.RECOMPOSE_EXEMPLAR + (
        "Context: is the sky blue? no. "
        "Question: what weather is likely? Short answer:"
    )


def test_render_recompose_answerless():
    rendered = render_recompose("what weather is likely", (SubQA("is the sky blue"),))
    assert (
        "Context: is the sky blue? Question: what weather is likely? Short answer:"
        in rendered
    )
    assert "no." not in rendered[len(prompts.RECOMPOSE_EXEMPLAR):]


def test_render_recompose_two_subqas_in_order():
    # Expected string hand-expanded from the single-subquestion template.
    sub_qas = (SubQA("is the sky blue", "no"), SubQA("are there clouds", "yes"))
    rendered = render_recompose("what weather is likely", sub_qas)
    assert rendered == prompts.RECOMPOSE_EXEMPLAR + (
        "Context: is the sky blue? no. are there clouds? yes. "
        "Question: what weather is likely? Short answer:"
    )


def test_render_recompose_strips_one_trailing_question_mark():
    rendered = render_recompose("what weather is likely?", (SubQA("is the sky blue?", "no"),))
    assert "blue?? " not in rendered
    assert "Question: what weather is likely? Short answer:" in rendered


def test_strip_answers():
    stripped = perturb_strip_answers((SubQA("is the sky blue", "no"), SubQA("is it wet", "yes")))
    assert stripped == (SubQA("is the sky blue"), SubQA("is it wet"))


sub_qa_strategy = st.builds(
    SubQA,
    question=st.text(
        st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters=" "),
        min_size=1,
        max_size=30,
    ).filter(str.split),
    answer=st.one_of(st.none(), st.sampled_from(["yes", "no", "two dogs"])),
)
sub_qas_strategy = st.lists(sub_qa_strategy, min_size=1, max_size=3).map(tuple)


@given(sub_qas_strategy)
def test_strip_answers_idempotent(sub_qas):
    once = perturb_strip_answers(sub_qas)
    assert perturb_strip_answers(once) == once


@given(sub_qas_strategy, st.integers(min_value=0, max_value=2**32))
def test_scramble_preserves_token_multiset(sub_qas, seed):
    (scrambled,) = perturb_scramble(sub_qas, seed)
    original_tokens = []
    for qa in sub_qas:
        original_tokens.extend(qa.question.split())
        if qa.answer is not None:
            original_tokens.extend(qa.answer.split())
    assert scrambled.answer is None
    assert Counter(scrambled.question.split()) == Counter(original_tokens)


@given(sub_qas_strategy, st.integers(min_value=0, max_value=2**32))
def test_scramble_deterministic(sub_qas, seed):
    assert perturb_scramble(sub_qas, seed) == perturb_scramble(sub_qas, seed)


def test_scramble_single_token_identity():
    assert perturb_scramble((SubQA("yes"),), 123) == (SubQA("yes"),)
