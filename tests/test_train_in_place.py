"""The batched weight-net trainer matches the per-example reference.

``comb_train`` runs each mini-batch as one matrix pass and writes the
scaled update into one gradient buffer; ``helpers.reference_comb_train``
is plain SGD one example at a time over freshly allocated, zeroed arrays
with ``w -= lr * (g / n)``. The two sum in different orders, so they
agree within a tolerance fixed ahead of the batched code: parameters
within 1e-12 absolute and every epoch loss within 1e-12 relative, on
every batch size, on a short last batch, through early stopping and on
examples whose loss is floored. Which epoch is best, whether training
stopped early and how many train examples had a loss floored must be
identical.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogen.combmodel import CombExample, CombTrainConfig, comb_grad, comb_init, comb_train
from cogen.core import TokenDistribution
from helpers import (
    one_sided_examples,
    openblas_corename,
    perturbed_params,
    random_comb_example,
    reference_backward,
    reference_comb_train,
    reference_forward,
)

# 11 training examples leave a last batch of 1, 2 and 3 at batch sizes 2, 3 and
# 4; at 16, one short batch holds all 11.
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


PARAM_ATOL = 1e-12
LOSS_RTOL = 1e-12


def assert_same_training(got, want) -> None:
    (params, report), (ref_params, ref_report) = got, want
    for name, a, b in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params.arrays(), ref_params.arrays()):
        np.testing.assert_allclose(a, b, rtol=0, atol=PARAM_ATOL, err_msg=f"{name} differs from the reference")
    assert len(report.epochs) == len(ref_report.epochs)
    for got_epoch, want_epoch in zip(report.epochs, ref_report.epochs):
        assert got_epoch.epoch == want_epoch.epoch
        assert got_epoch.train_loss == pytest.approx(want_epoch.train_loss, rel=LOSS_RTOL, abs=0)
        assert got_epoch.val_loss == pytest.approx(want_epoch.val_loss, rel=LOSS_RTOL, abs=0)
    assert report.best_epoch == ref_report.best_epoch
    assert report.best_val_loss == pytest.approx(ref_report.best_val_loss, rel=LOSS_RTOL, abs=0)
    assert report.stopped_early == ref_report.stopped_early
    assert report.degenerate_examples == ref_report.degenerate_examples


@pytest.mark.parametrize("learning_rate", [2e-3, 0.5])
@pytest.mark.parametrize("patience", [1, 15])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 16])
def test_in_place_trainer_matches_reference(batch_size, patience, learning_rate):
    train, val = splits()
    config = CombTrainConfig(
        learning_rate=learning_rate, batch_size=batch_size, max_epochs=15, patience=patience, seed=4
    )
    got = comb_train(train, val, config)
    assert_same_training(got, reference_comb_train(train, val, config))
    report = got[1]
    assert report.degenerate_examples > 0
    # One update per epoch at batch size 16 is too few to overshoot.
    if learning_rate == 0.5 and patience == 1 and batch_size < TRAIN_SIZE:
        assert report.stopped_early and report.best_epoch < len(report.epochs)


def test_degenerate_examples_counts_each_floored_example_once():
    """Both floored train examples floor their loss in every one of 15
    epochs; the report counts each example once, not once per epoch."""
    train, val = splits()
    _, report = comb_train(train, val, CombTrainConfig(max_epochs=15, patience=15, seed=4))
    assert len(report.epochs) == 15
    assert report.degenerate_examples == len(floored_examples())


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
        w, cache = reference_forward(arrs, ex.x)
        want = reference_backward(arrs, ex, w, cache)
        for a, b in zip(comb_grad(params, ex).arrays(), want):
            assert a.shape == b.shape
            # Each entry sums at most 16 products: compare on the tensor's own scale.
            atol = PARAM_ATOL * max(1.0, float(np.abs(b).max()))
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)
            if not b.any():  # a flat or clamped loss: exactly zero either way
                assert not a.any()


# OpenBLAS kernels for x86-64: a generic SSE3 one, the AVX2 one and the
# AVX-512 one. Each sums a small matrix product in its own order.
KERNELS = ("Prescott", "Haswell", "SkylakeX")
TESTS = Path(__file__).resolve().parent
# Prints the kernel the child's OpenBLAS runs, then the two comparisons above.
CHILD = """import sys, pytest
from helpers import openblas_corename
print(openblas_corename(), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
    sys.argv[1] + "::test_in_place_trainer_matches_reference",
    sys.argv[1] + "::test_comb_grad_matches_reference_backward"]))
"""


def cpu_has_avx512() -> bool:
    try:
        return " avx512f" in Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return False


def test_the_tolerance_holds_under_each_openblas_kernel():
    """Both comparisons pass in a child process under each kernel, set
    through ``OPENBLAS_CORETYPE`` in the child's environment only. Each
    child reports a different kernel, so the variable took effect.
    SkylakeX runs only on a CPU with AVX-512."""
    if platform.machine().lower() not in ("x86_64", "amd64") or openblas_corename() is None:
        pytest.skip("numpy carries no x86-64 OpenBLAS whose kernel can be read")
    kernels = [k for k in KERNELS if k != "SkylakeX" or cpu_has_avx512()]
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")])
    names = []
    for kernel in kernels:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, __file__],
            cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, f"under {kernel}:\n{proc.stdout}{proc.stderr}"
        names.append(proc.stdout.splitlines()[0])
    assert len(set(names)) == len(kernels), f"kernels {kernels} ran as {names}"
