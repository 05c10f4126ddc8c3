"""Prompt templates and the perturbation transforms applied to decompositions.

The template strings are load-bearing: downstream models were prompted with
these exact bytes, so rendering is pure string substitution with no
trimming, re-wrapping, or normalization of the caller's text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

RECOMPOSE_EXEMPLAR = (
    "Context: is the sky blue? no. are there clouds in the sky? yes. "
    "Question: what weather is likely? Short answer: rain"
)

# Every prompt kind and its template; the golden files under prompts/ hold
# the same bytes. The recompose template shows one sub-QA; render_recompose
# fills its context slot with any number of them.
TEMPLATES = {
    "direct_qa": "Question: {question} Short Answer:",
    "decompose_default": (
        "Reasoning Question: is the banana ripe enough to eat? "
        "Perception Question: is the banana yellow?\n"
        "Reasoning Question: is it cold outside? "
        "Perception Question: are any people wearing jackets?\n"
        "Reasoning Question: {question} Perception Question:"
    ),
    "decompose_galactica_instruct": (
        "Below is an instruction that describes a task. "
        "Write a response that appropriately completes the request.\n\n"
        "### Instruction:\n"
        "Write a simpler perception question that can help to answer: {question}\n\n"
        "### Response:"
    ),
    "recompose": RECOMPOSE_EXEMPLAR
    + "Context: {subquestion}? {subanswer}. Question: {question}? Short answer:",
}

DECOMPOSE_STYLES = tuple(kind for kind in TEMPLATES if kind.startswith("decompose_"))

_RECOMPOSE_HEAD, _RECOMPOSE_TAIL = TEMPLATES["recompose"].split(
    "{subquestion}? {subanswer}."
)


@dataclass(frozen=True)
class SubQA:
    """One decomposition unit: a subquestion and its (optional) answer."""

    question: str
    answer: Optional[str] = None


@dataclass(frozen=True)
class DecompositionContext:
    sub_qas: tuple

    def __init__(self, sub_qas: Sequence[SubQA]) -> None:
        sub_qas = tuple(sub_qas)
        if not sub_qas:
            raise ValueError("decomposition context must contain at least one SubQA")
        # Empty subquestion text is tolerated so that degenerate model
        # generations can still flow through recomposition.
        object.__setattr__(self, "sub_qas", sub_qas)


def render_direct_qa(question: str) -> str:
    if not question:
        raise ValueError("question must be non-empty")
    return TEMPLATES["direct_qa"].replace("{question}", question)


def render_decompose(question: str, style: str = "decompose_default") -> str:
    if not question:
        raise ValueError("question must be non-empty")
    if style not in DECOMPOSE_STYLES:
        raise ValueError(f"not a decompose prompt kind: {style!r}")
    return TEMPLATES[style].replace("{question}", question)


def _strip_one_question_mark(text: str) -> str:
    # The template hard-codes the "?", so exactly one trailing "?" is
    # removed from inputs to avoid emitting "??".
    return text[:-1] if text.endswith("?") else text


def render_recompose(question: str, ctx: DecompositionContext) -> str:
    if not question:
        raise ValueError("question must be non-empty")
    segments = []
    for qa in ctx.sub_qas:
        segment = f"{_strip_one_question_mark(qa.question)}?"
        if qa.answer is not None:
            segment += f" {qa.answer}."
        segments.append(segment)
    return (
        _RECOMPOSE_HEAD
        + " ".join(segments)
        + _RECOMPOSE_TAIL.replace("{question}", _strip_one_question_mark(question))
    )


def perturb_strip_answers(ctx: DecompositionContext) -> DecompositionContext:
    """No-Answer condition: keep subquestions, drop every answer."""
    return DecompositionContext(
        [SubQA(question=qa.question, answer=None) for qa in ctx.sub_qas]
    )


def perturb_scramble(ctx: DecompositionContext, seed: int) -> DecompositionContext:
    """Scrambled condition: uniformly permute all whitespace tokens of the
    concatenated subquestions and answers, re-packed as one answerless SubQA.

    The permutation is Fisher-Yates driven by Python's ``random.Random(seed)``
    (Mersenne Twister), so any implementation with the same seed agrees.
    """
    tokens = []
    for qa in ctx.sub_qas:
        tokens.extend(qa.question.split())
        if qa.answer is not None:
            tokens.extend(qa.answer.split())
    random.Random(seed).shuffle(tokens)
    return DecompositionContext([SubQA(question=" ".join(tokens), answer=None)])

