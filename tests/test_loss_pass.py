"""The weight net's grouped loss pass equals the one-blend reference.

``combmodel._losses`` takes every example of one aligned length in one
numpy pass: elementwise products, a row ``sum`` for the mass, the snap
of a mass within ``DENSE_SUM_TOL`` of 1, the 1e-12 floor, and
``math.log``. ``helpers.reference_loss`` blends one example at a time
through ``fusion.blend``, whose mass is ``core._pairwise_sum``. The
two must agree bit for bit, and on which examples were floored, at
every aligned length from 1 to 300 (across numpy's 8- and 128-entry
summation blocks), at the weights next to 0 and 1, and at masses on
either side of the snap's tolerance. The row ``sum`` itself is pinned
against ``_pairwise_sum`` row by row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cogen import combmodel
from cogen.combmodel import CombExample
from cogen.core import DENSE_SUM_TOL, TokenDistribution, _pairwise_sum
from cogen.errors import InvalidInputError
from helpers import reference_loss

# The weights next to the ends of (0, 1), where one side's term vanishes
# or nearly so, and a few inside.
EDGE_WEIGHTS = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 0.5, 0.25, 1 / 3)
# View masses exactly 1, inside the snap's tolerance, at its edge, past it
# and well under 1.
MASSES = (1.0, 1 - DENSE_SUM_TOL / 10, 1 - DENSE_SUM_TOL, 1 - 1.01 * DENSE_SUM_TOL, 1 - 1e-6, 0.7)
# Lengths at and around numpy's summation blocks.
BLOCK_LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300)


def _view(ids, probs, vocab: int) -> TokenDistribution:
    order = np.argsort(-probs, kind="stable")
    return TokenDistribution.sparse(ids[order], probs[order], vocab)


def aligned_example(rng: np.random.Generator, length: int, mass_a: float, mass_b: float, tiny: bool):
    """An example whose views align over ``length`` ids, each id in the
    small view, the large one or both, each view scaled to its mass. A
    ``tiny`` example's gold id holds under 1e-13 in the small view alone,
    so its fused probability is floored at any weight."""
    regular = length - 1 if tiny and length > 1 else length
    side = rng.integers(0, 3, regular)  # 0: small only, 1: large only, 2: both
    side[0] = 2  # neither view is empty
    ids = rng.permutation(length)
    views = []
    for member, mass in ((side != 1, mass_a), (side != 0, mass_b)):
        raw = rng.random(int(member.sum())) ** 3 + 1e-3
        views.append([ids[:regular][member], raw / raw.sum() * mass])
    if regular < length:
        views[0][0] = np.append(views[0][0], ids[-1])
        views[0][1] = np.append(views[0][1], 10 ** -rng.uniform(13, 16))
        gold = int(ids[-1])
    else:
        gold = int(rng.choice(ids))
    ps_k, pl_k = (_view(i, p, length) for i, p in views)
    example = CombExample(ps_k, pl_k, gold)
    assert len(example.a) == length
    return example


def assert_grouped_pass_matches(examples, ws) -> None:
    floored: set[int] = set()
    got = combmodel._losses(combmodel._loss_groups(examples), np.array(ws), floored)
    want = [reference_loss(ex, w) for ex, w in zip(examples, ws)]
    assert [loss.hex() for loss in got] == [loss.hex() for loss, _ in want]
    assert floored == {i for i, (_, low) in enumerate(want) if low}


@pytest.mark.parametrize("tiny", [False, True])
def test_every_length_to_300(tiny):
    """Four examples at each length 1 to 300, grouped together with every
    other length's: one at each edge weight and mass pair."""
    rng = np.random.default_rng(300 + tiny)
    examples, ws = [], []
    for length in range(1, 301):
        for k in range(4):
            masses = MASSES[(length + k) % len(MASSES)], MASSES[(length + 2 * k) % len(MASSES)]
            examples.append(aligned_example(rng, length, *masses, tiny and length > 1))
            ws.append(EDGE_WEIGHTS[(length + k) % len(EDGE_WEIGHTS)])
    assert_grouped_pass_matches(examples, ws)


@st.composite
def weighted_examples(draw):
    length = draw(st.sampled_from(BLOCK_LENGTHS) | st.integers(1, 300))
    masses = draw(st.sampled_from(MASSES) | st.floats(0.05, 1.0)), draw(st.sampled_from(MASSES))
    tiny = length > 1 and draw(st.booleans())
    example = aligned_example(np.random.default_rng(draw(st.integers(0, 2**32))), length, *masses, tiny)
    return example, draw(st.sampled_from(EDGE_WEIGHTS) | st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(weighted_examples(), min_size=1, max_size=10))
def test_grouped_pass_matches_reference_loss(batch):
    assert_grouped_pass_matches([ex for ex, _ in batch], [w for _, w in batch])


def test_comb_loss_is_the_grouped_epoch_loss_on_harvested_examples(world0, world0_backends):
    """``comb_loss`` blends one example through ``fusion.blend``; on every
    example harvested from world 0's train records at ``comb_init(0)`` it
    equals the grouped pass of ``comb_train``'s epochs, bit for bit."""
    llm, slms = world0_backends
    examples = [
        ex
        for record in world0.train_records
        for ex in combmodel.harvest_examples(slms[record.user_id], llm, [record], world0.tokenizer)[0]
    ]
    params = combmodel.comb_init(0)
    ws = np.array([combmodel._forward_pass(params._layers, np.append(ex.x, 1.0))[0] for ex in examples])
    grouped = combmodel._losses(combmodel._loss_groups(examples), ws, set())
    assert len(examples) > 300
    assert [combmodel.comb_loss(params, ex).hex() for ex in examples] == [loss.hex() for loss in grouped]


def test_a_blend_without_mass_raises_as_blend_does():
    empty = TokenDistribution.sparse([0], [0.0], vocab_size=3)
    example = CombExample(empty, empty, 0)
    with pytest.raises(InvalidInputError, match="fused distribution has no mass"):
        reference_loss(example, 0.5)
    with pytest.raises(InvalidInputError, match="fused distribution has no mass"):
        combmodel._losses(combmodel._loss_groups([example]), np.array([0.5]), set())


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 300).flatmap(
        lambda length: arrays(np.float64, st.tuples(st.integers(1, 5), st.just(length)), elements=st.floats(-1.0, 1.0))
    )
)
def test_row_sum_is_pairwise_sum(rows):
    """A 2-D array's row ``sum`` adds each row in ``_pairwise_sum``'s order."""
    got = rows.sum(axis=1)
    assert [x.hex() for x in got.tolist()] == [_pairwise_sum(row).hex() for row in rows.tolist()]
