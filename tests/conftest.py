"""Shared fixtures: a tiny scripted world plus the synthetic corpus."""

from __future__ import annotations

import pytest

from cogen.backends import Role
from cogen.core import SamplingConfig, Vocab
from cogen.corpus import CorpusRecord
from cogen.synthetic import build_world, large_backend, small_backends
from cogen.tokenizer import Tokenizer
from helpers import path_backend


@pytest.fixture(scope="session")
def abc_vocab() -> Vocab:
    return Vocab(tokens=("A", "B", "C", "D", "</s>", "<unk>"), eos_id=4, unk_id=5)


@pytest.fixture()
def path_backends(abc_vocab):
    """Deterministic table automata: small follows A B C, large follows A B D."""
    slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
    llm = path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"])
    return slm, llm


@pytest.fixture()
def greedy_sampling() -> SamplingConfig:
    return SamplingConfig(greedy=True, seed=0, max_new_tokens=16)


@pytest.fixture()
def simple_record() -> CorpusRecord:
    return CorpusRecord(
        user_id="u0",
        dataset_kind="context_aware",
        profile="profile of a meticulous planner fond of alpine hiking",
        history=("previous post about alpine hiking droughts", "note about trail maintenance"),
        task="A B C",
        reference="A B C",
        general_task="A B",
    )


@pytest.fixture(scope="session")
def world0():
    return build_world(0)


@pytest.fixture(scope="session")
def world0_backends(world0):
    return large_backend(world0), small_backends(world0)


@pytest.fixture(scope="session")
def world0_tokenizer(world0) -> Tokenizer:
    return world0.tokenizer
