"""The in-place weight-net trainer computes the reference trainer's bits.

``comb_train`` updates one set of gradient buffers in place;
``helpers.reference_comb_train`` is plain SGD over freshly allocated,
zeroed arrays with ``w -= lr * (g / n)``. Every floating-point operation
is the same in both, in the same order, so parameters and losses must
agree to the bit on every batch size, on a short last batch, through
early stopping and on examples whose loss is floored.
"""

from __future__ import annotations

import numpy as np
import pytest

from cogen.combmodel import CombExample, CombTrainConfig, _forward, comb_grad, comb_init, comb_train
from cogen.core import TokenDistribution
from helpers import (
    one_sided_examples,
    perturbed_params,
    random_comb_example,
    reference_backward,
    reference_comb_train,
)

# 11 training examples leave a last batch of 1, 2 and 3 at batch sizes 2, 3 and 4.
TRAIN_SIZE = 11


def floored_examples() -> list[CombExample]:
    """Examples whose gold token holds ~1e-14 in one view and nothing in
    the other, so its fused probability falls under the 1e-12 floor."""
    a = TokenDistribution.sparse([0, 1], [0.9, 1e-14], vocab_size=6)
    b = TokenDistribution.sparse([2, 3], [0.5, 0.4], vocab_size=6)
    c = TokenDistribution.sparse([4, 5], [0.7, 2e-14], vocab_size=6)
    return [CombExample(a, b, 1), CombExample(b, c, 5)]


def splits() -> tuple[list[CombExample], list[CombExample]]:
    rng = np.random.default_rng(3)
    train = one_sided_examples(1, 7) + [random_comb_example(rng) for _ in range(2)] + floored_examples()
    val = one_sided_examples(2, 3) + [random_comb_example(rng)] + floored_examples()[:1]
    assert len(train) == TRAIN_SIZE
    return train, val


def assert_same_training(got, want) -> None:
    (params, report), (ref_params, ref_report) = got, want
    for name, a, b in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params.arrays(), ref_params.arrays()):
        assert a.tobytes() == b.tobytes(), f"{name} differs from the reference trainer"
    assert [(repr(e.train_loss), repr(e.val_loss)) for e in report.epochs] == [
        (repr(e.train_loss), repr(e.val_loss)) for e in ref_report.epochs
    ]
    assert report.best_epoch == ref_report.best_epoch
    assert repr(report.best_val_loss) == repr(ref_report.best_val_loss)
    assert report.stopped_early == ref_report.stopped_early
    assert report.degenerate_examples == ref_report.degenerate_examples


@pytest.mark.parametrize("learning_rate", [2e-3, 0.5])
@pytest.mark.parametrize("patience", [1, 15])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
def test_in_place_trainer_matches_reference(batch_size, patience, learning_rate):
    train, val = splits()
    config = CombTrainConfig(
        learning_rate=learning_rate, batch_size=batch_size, max_epochs=15, patience=patience, seed=4
    )
    got = comb_train(train, val, config)
    assert_same_training(got, reference_comb_train(train, val, config))
    report = got[1]
    assert report.degenerate_examples > 0
    if learning_rate == 0.5 and patience == 1:
        assert report.stopped_early and report.best_epoch < len(report.epochs)


def test_comb_grad_matches_reference_backward():
    rng = np.random.default_rng(11)
    equal = TokenDistribution.sparse([0, 1], [0.6, 0.4], vocab_size=4)
    examples = (
        [random_comb_example(rng) for _ in range(20)]
        + one_sided_examples(5, 3)
        + floored_examples()
        + [CombExample(equal, equal, 0)]  # equal sources: a zero gradient
    )
    for seed, ex in enumerate(examples):
        params = perturbed_params(comb_init(seed), rng, scale=0.5)
        arrs = params.arrays()
        w, cache = _forward(arrs, ex.x)
        want = reference_backward(arrs, ex, w, cache)
        for a, b in zip(comb_grad(params, ex).arrays(), want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
