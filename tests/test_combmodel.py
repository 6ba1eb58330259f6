"""The fusion-weight network: init, forward, loss, gradients, training, IO."""

import math
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cogen import combmodel
from cogen.combmodel import (
    CombExample,
    CombModelParams,
    CombTrainConfig,
    comb_forward,
    comb_grad,
    comb_init,
    comb_load,
    comb_loss,
    comb_save,
    comb_train,
    harvest_examples,
)
from cogen.core import TokenDistribution, top_k_project
from cogen.decoder import teacher_forced_steps
from cogen.errors import InvalidConfigError, InvalidInputError, ModelIOError
from cogen.fusion import top_k_views
from cogen.rng import Splitmix64
from helpers import one_sided_examples, perturbed_params, random_comb_example, scalar_uniform

# frozen during bring-up from the seed-0 reference forward pass
GOLDEN_SEED0_W_AT_TENTHS = 0.4945647860260131


def dense_example(p_s, p_l, target):
    # Full-length views align over the whole vocabulary.
    a = TokenDistribution.dense(p_s)
    b = TokenDistribution.dense(p_l)
    return CombExample(top_k_project(a, a.vocab_size), top_k_project(b, b.vocab_size), target)


class TestInit:
    def test_deterministic_per_seed(self):
        a, b = comb_init(7), comb_init(7)
        assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))

    def test_seed_changes_parameters(self):
        a, b = comb_init(7), comb_init(8)
        assert not np.array_equal(a.w1, b.w1)

    def test_biases_zero(self):
        params = comb_init(3)
        assert not params.b1.any() and not params.b2.any() and not params.b3.any()

    def test_matches_scalar_draw_order(self):
        # One stream, consumed layer by layer in row-major order, one
        # scalar uniform per weight: the init every saved model relies on.
        for seed in (0, 5, 123456789, 2**64 - 1):
            rng = Splitmix64(seed)
            params = comb_init(seed)
            for arr in (params.w1, params.w2, params.w3):
                limit = math.sqrt(6.0 / sum(arr.shape))
                want = [scalar_uniform(rng, -limit, limit) for _ in range(arr.size)]
                assert arr.ravel().tolist() == want

    def test_fan_balanced_bounds(self):
        params = comb_init(0)
        for arr, fan in ((params.w1, 20 + 512), (params.w2, 512 + 16), (params.w3, 16 + 1)):
            bound = math.sqrt(6.0 / fan)
            assert np.abs(arr).max() <= bound

    def test_shapes_enforced(self):
        good = comb_init(0)
        with pytest.raises(InvalidInputError):
            CombModelParams(
                w1=np.zeros((20, 256)), b1=good.b1.copy(), w2=good.w2.copy(),
                b2=good.b2.copy(), w3=good.w3.copy(), b3=good.b3.copy(),
            )


class TestForward:
    def test_zero_network_outputs_half(self):
        params = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.zeros(1),
        )
        assert comb_forward(params, [0.1] * 10, [0.1] * 10) == 0.5

    def test_saturated_negative_bias_stays_positive(self):
        params = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.array([-50.0]),
        )
        w = comb_forward(params, [0.1] * 10, [0.1] * 10)
        assert 0.0 < w < 1e-20

    def test_golden_seed0_forward(self):
        params = comb_init(0)
        assert comb_forward(params, [0.1] * 10, [0.1] * 10) == pytest.approx(
            GOLDEN_SEED0_W_AT_TENTHS, abs=1e-15
        )

    def test_output_always_open_interval(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            params = perturbed_params(comb_init(seed), rng, scale=5.0)
            v = sorted(rng.random(10), reverse=True)
            w = comb_forward(params, v, v)
            assert 0.0 < w < 1.0

    def test_rejects_wrong_length(self):
        params = comb_init(0)
        with pytest.raises(InvalidInputError):
            comb_forward(params, [0.1] * 9, [0.1] * 10)

    def test_rejects_ascending_input(self):
        params = comb_init(0)
        with pytest.raises(InvalidInputError):
            comb_forward(params, list(reversed(sorted([0.1 * i for i in range(10)]))),
                         [0.01 * i for i in range(10)])


class TestLoss:
    def test_certainty_drives_loss_to_zero(self):
        ex = dense_example([1.0, 0.0], [0.5, 0.5], target=0)
        params = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.array([50.0]),
        )
        assert comb_loss(params, ex) < 1e-12

    def test_equal_sources_make_loss_flat_in_w(self):
        ex = dense_example([0.6, 0.4], [0.6, 0.4], target=0)
        sharp_up = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.array([30.0]),
        )
        sharp_down = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.array([-30.0]),
        )
        assert comb_loss(sharp_up, ex) == pytest.approx(comb_loss(sharp_down, ex), abs=1e-12)
        grad = comb_grad(sharp_up, ex)
        assert all(not g.any() for g in grad.arrays())

    def test_binary_vocab_arithmetic(self):
        # w = 0.5 exactly with a zero network; the target has small-side
        # mass 0.6 and large-side mass 0.2, so the fused mass is 0.4
        ex = dense_example([0.6, 0.4], [0.2, 0.8], target=0)
        params = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.zeros(1),
        )
        assert comb_loss(params, ex) == pytest.approx(-math.log(0.4), abs=1e-12)

    def test_degenerate_target_counted_and_floored(self):
        a = TokenDistribution.sparse([0, 1], [0.5, 0.4], vocab_size=4)
        b = TokenDistribution.sparse([0, 2], [0.6, 0.3], vocab_size=4)
        ex = CombExample(a, b, 2)
        # zero out the large side's mass at the target by fusing at w -> 1
        params = CombModelParams(
            w1=np.zeros((20, 512)), b1=np.zeros(512), w2=np.zeros((512, 16)),
            b2=np.zeros(16), w3=np.zeros((16, 1)), b3=np.array([700.0]),
        )
        assert comb_loss(params, ex) == -math.log(1e-12)

    def test_target_must_be_in_support(self):
        a = TokenDistribution.sparse([0], [0.5], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.5], vocab_size=4)
        with pytest.raises(InvalidInputError):
            CombExample(a, b, 3)


class TestGradient:
    def test_matches_finite_differences_on_sampled_components(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for trial in range(25):
            params = perturbed_params(comb_init(trial), rng)
            ex = random_comb_example(rng)
            grads = comb_grad(params, ex)
            for t_idx, garr in enumerate(grads.arrays()):
                flat_size = garr.size
                for i in rng.choice(flat_size, size=min(3, flat_size), replace=False):
                    plus = [np.array(a) for a in params.arrays()]
                    plus[t_idx].ravel()[i] += h
                    minus = [np.array(a) for a in params.arrays()]
                    minus[t_idx].ravel()[i] -= h
                    lp = comb_loss(_params_from(plus), ex)
                    lm = comb_loss(_params_from(minus), ex)
                    fd = (lp - lm) / (2 * h)
                    analytic = garr.ravel()[i]
                    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
                    assert rel < 1e-4

    def test_dense_chain_start_sign(self):
        # with the small side better at the target, pushing the output bias
        # up (toward w = 1) must reduce the loss
        ex = dense_example([0.7, 0.3], [0.3, 0.7], target=0)
        params = comb_init(3)
        grad = comb_grad(params, ex)
        assert grad.b3[0] < 0


def _params_from(arrays):
    return CombModelParams(
        w1=arrays[0], b1=arrays[1], w2=arrays[2], b2=arrays[3], w3=arrays[4], b3=arrays[5],
    )


class TestTraining:
    def test_one_sided_task_specializes_to_small(self):
        train = one_sided_examples(11, 200)
        val = one_sided_examples(12, 50)
        params, report = comb_train(train, val, CombTrainConfig(seed=5))
        ws = [comb_forward(params, ex.top10_l, ex.top10_s) for ex in val]
        assert sum(ws) / len(ws) > 0.9

    def test_mirrored_task_specializes_to_large(self):
        train = one_sided_examples(11, 200, mirrored=True)
        val = one_sided_examples(12, 50, mirrored=True)
        params, report = comb_train(train, val, CombTrainConfig(seed=5))
        ws = [comb_forward(params, ex.top10_l, ex.top10_s) for ex in val]
        assert sum(ws) / len(ws) < 0.1

    def test_determinism(self):
        train = one_sided_examples(21, 60)
        val = one_sided_examples(22, 20)
        cfg = CombTrainConfig(seed=9, max_epochs=5)
        p1, _ = comb_train(train, val, cfg)
        p2, _ = comb_train(train, val, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(p1.arrays(), p2.arrays()))

    def test_early_stopping_bookkeeping(self):
        train = one_sided_examples(31, 80)
        val = one_sided_examples(32, 20)
        params, report = comb_train(train, val, CombTrainConfig(seed=2, max_epochs=30))
        vals = [e.val_loss for e in report.epochs]
        assert report.best_val_loss == min(vals)
        assert report.epochs[report.best_epoch - 1].val_loss == report.best_val_loss
        # the best-so-far sequence never increases
        best_so_far = np.minimum.accumulate(vals)
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best_so_far, best_so_far[1:]))

    def test_rejects_empty_splits(self):
        with pytest.raises(InvalidInputError):
            comb_train([], one_sided_examples(1, 5), CombTrainConfig())

    @pytest.mark.parametrize("learning_rate", [math.inf, -math.inf, math.nan, 0.0])
    def test_config_rejects_a_learning_rate_that_is_not_finite_and_positive(self, learning_rate):
        with pytest.raises(InvalidConfigError, match="learning_rate"):
            CombTrainConfig(learning_rate=learning_rate)

    def test_diverging_learning_rate_raises_instead_of_returning_the_init(self):
        # Every validation loss is NaN, so no epoch is ever the best one.
        config = CombTrainConfig(learning_rate=1e300, max_epochs=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidConfigError, match="diverged"):
                comb_train(one_sided_examples(1, 8), one_sided_examples(2, 3), config)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        params, _ = comb_train(
            one_sided_examples(41, 40), one_sided_examples(42, 10),
            CombTrainConfig(seed=1, max_epochs=3),
        )
        path = tmp_path / "weights.cgcm"
        comb_save(params, path)
        loaded = comb_load(path)
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), loaded.arrays()))
        assert loaded.seed == params.seed

    def test_corrupted_magic_rejected(self, tmp_path):
        params = comb_init(0)
        path = tmp_path / "weights.cgcm"
        comb_save(params, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelIOError):
            comb_load(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = comb_init(0)
        path = tmp_path / "weights.cgcm"
        comb_save(params, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ModelIOError):
            comb_load(path)

    def test_foreign_shape_header_rejected(self, tmp_path):
        path = tmp_path / "weights.cgcm"
        header = b"CGCM" + struct.pack("<HHIIIIQ", 1, 4, 20, 256, 16, 1, 0)
        path.write_bytes(header + b"\x00" * (8 * (20 * 256 + 256 + 256 * 16 + 16 + 16 + 1)))
        with pytest.raises(ModelIOError, match="shape"):
            comb_load(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda blob: b"XXXX" + blob[4:], "bad magic"),
            (lambda blob: blob[:4] + struct.pack("<H", 2) + blob[6:], "unsupported container version 2"),
            (lambda blob: blob[:-16], "truncated"),
            (lambda blob: blob[:-8] + struct.pack("<d", math.nan), "b3 contains non-finite entries"),
            (lambda blob: blob[:8] + struct.pack("<I", 21) + blob[12:], "shape mismatch"),
            (lambda blob: blob[:40] + struct.pack("<d", math.inf) + blob[48:], "w1 contains non-finite entries"),
        ],
        ids=["magic", "version", "truncated", "nan", "shape", "inf"],
    )
    def test_every_bad_container_is_a_model_io_error_naming_the_file(self, tmp_path, corrupt, message):
        path = tmp_path / "weights.cgcm"
        comb_save(comb_init(0), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ModelIOError, match=message) as exc:
            comb_load(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("name", ["missing.cgcm", "."], ids=["missing", "directory"])
    def test_an_unreadable_path_is_a_model_io_error_naming_it(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ModelIOError) as exc:
            comb_load(path)
        assert str(path) in str(exc.value)


class TestBlockLayout:
    """``_LAYOUT`` puts each weight straight before its bias, so ``[w; b]``
    is one row block of the flat buffer, the block the trainer runs."""

    def test_trainer_blocks_are_views_of_one_flat_buffer_in_layout_order(self, monkeypatch):
        cuts = []
        real_blocks = combmodel._blocks

        def spy(flat):
            blocks = real_blocks(flat)
            # the trainer's own cuts, not those the parameters make of theirs
            if sys._getframe(1).f_code is combmodel.comb_train.__code__:
                cuts.append((flat.copy(), flat, blocks))
            return blocks

        monkeypatch.setattr(combmodel, "_blocks", spy)
        comb_train(one_sided_examples(1, 5), one_sided_examples(2, 2), CombTrainConfig(seed=3, max_epochs=1))
        (theta0, theta, blocks), (_, grad, grad_blocks) = cuts[:2]
        init = comb_init(3)
        np.testing.assert_array_equal(theta0, np.concatenate([getattr(init, n).ravel() for n, _ in combmodel._LAYOUT]))
        for flat, cut in ((theta, blocks), (grad, grad_blocks)):
            offset = 0
            for block, (w_name, w_shape), (b_name, b_shape) in zip(
                cut, combmodel._LAYOUT[0::2], combmodel._LAYOUT[1::2]
            ):
                assert block.shape == (w_shape[0] + 1, w_shape[1]) and b_shape == (w_shape[1],)
                assert block.flags.c_contiguous and np.shares_memory(block, flat)
                assert block.ctypes.data == flat.ctypes.data + 8 * offset
                if flat is theta:
                    start = theta0[offset : offset + block.size].reshape(block.shape)
                    np.testing.assert_array_equal(start[:-1], getattr(init, w_name))
                    np.testing.assert_array_equal(start[-1], getattr(init, b_name))
                offset += block.size
            assert offset == flat.size

    def test_saved_body_is_the_blocks_bytes(self, tmp_path):
        params = perturbed_params(comb_init(5), np.random.default_rng(5), scale=0.5)
        path = tmp_path / "weights.cgcm"
        comb_save(params, path)
        flat = np.concatenate([getattr(params, name).ravel() for name, _ in combmodel._LAYOUT])
        blocks = combmodel._blocks(flat)
        arrays = params.arrays()
        for block, w, b in zip(blocks, arrays[0::2], arrays[1::2]):
            assert np.array_equal(block[:-1], w) and np.array_equal(block[-1], b)
        body = path.read_bytes()[combmodel._BODY_OFFSET :]
        assert body == b"".join(block.astype("<f8").tobytes() for block in blocks)


class TestHarvest:
    def test_harvest_counts_and_targets(self, world0, world0_backends, world0_tokenizer):
        llm, slms = world0_backends
        record = world0.train_records[0]
        examples, stats = harvest_examples(
            slms[record.user_id], llm, [record], world0_tokenizer
        )
        expected_positions = len(world0_tokenizer.tokenize(record.reference)) + 1
        assert stats.examples + stats.skipped_missing_target == expected_positions
        reference = set(world0_tokenizer.tokenize(record.reference))
        assert {ex.target_id for ex in examples} <= reference | {world0_tokenizer.vocab.eos_id}


class TestSharedState:
    def test_weight_from_four_threads_at_once_gives_the_single_threaded_bits(self, world0, world0_backends):
        """``weight`` keeps no scratch on the parameters: four threads
        weighing harvested view pairs at once, each from its own offset and
        switching as often as the interpreter allows, get one thread's bits."""
        llm, slms = world0_backends
        pairs = [
            top_k_views(p_s, p_l)
            for record in world0.train_records
            for _, p_s, p_l in teacher_forced_steps(slms[record.user_id], llm, record, world0.tokenizer)
        ]
        params = perturbed_params(comb_init(0), np.random.default_rng(0), scale=0.5)
        want = [params.weight(pl_k, ps_k).hex() for ps_k, pl_k in pairs]
        assert len(pairs) > 300 and len(set(want)) > 100
        threads = 4
        start = threading.Barrier(threads)

        def weigh(offset: int) -> list[str]:
            start.wait()
            got = [""] * len(pairs)
            for i in [*range(offset, len(pairs)), *range(offset)]:
                ps_k, pl_k = pairs[i]
                got[i] = params.weight(pl_k, ps_k).hex()
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(weigh, [k * len(pairs) // threads for k in range(threads)]))
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * threads
