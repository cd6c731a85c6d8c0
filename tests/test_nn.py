import numpy as np
import pytest

from lightdet.nn import (
    ACTIVATIONS, BatchNorm2d, Bottleneck, C3, Conv2d, ConvBnAct, LayerNorm,
    Linear, SPPF, activation, channel_shuffle, hswish, make_divisible, mish,
)
from lightdet.tensor import BN_MOMENTUM, Tensor, count_flops, grad_check, no_grad, toposort

from helpers import cast_f64, counted_flops, with_bn_stats


class TestActivations:
    def test_hswish_hand_values(self):
        x = Tensor(np.array([-4.0, -3.0, 0.0, 1.0, 3.0, 4.0]))
        y = hswish(x).numpy()
        assert np.allclose(y, [0.0, 0.0, 0.0, 4.0 / 6.0, 3.0, 4.0], atol=1e-6)

    def test_mish_matches_reference_formula(self, rng):
        x = rng.standard_normal(32) * 3
        got = mish(Tensor(x, dtype=np.float64)).numpy()
        want = x * np.tanh(np.log1p(np.exp(x)))
        assert np.allclose(got, want, atol=1e-9)

    def test_leaky_relu_two_pieces(self):
        x = Tensor(np.array([-2.0, 2.0]))
        y = ACTIVATIONS["leakyrelu"](x).numpy()
        assert np.allclose(y, [-0.02, 2.0])

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            activation("swishish")

    @pytest.mark.parametrize("name", ["leakyrelu", "hswish", "mish", "gelu", "relu"])
    def test_activation_gradcheck(self, name, rng):
        # keep samples off the hswish/leaky kinks at {-3, 0, 3}
        raw = rng.uniform(0.3, 2.4, size=12) * rng.choice([-1.0, 1.0], size=12)
        raw = raw[np.abs(np.abs(raw) - 0.0) > 0.2]
        x = Tensor(raw)
        fn = ACTIVATIONS[name]

        def f(t):
            return fn(t).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


class TestNorms:
    def test_batchnorm_train_normalizes(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3 + 1)
        y = bn(x).numpy()
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(y.std(axis=(0, 2, 3)), 1.0, atol=2e-2)

    def test_batchnorm_running_stats_and_eval(self, rng):
        bn = BatchNorm2d(2)
        x = rng.standard_normal((8, 2, 4, 4)) + 5.0
        bn(Tensor(x))
        # one update from the initial (0, 1) stats, the variance unbiased
        m = BN_MOMENTUM
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3), ddof=1)
        assert np.allclose(bn.running_mean.numpy(), m * mu, rtol=1e-6)
        assert np.allclose(bn.running_var.numpy(), (1 - m) + m * var, rtol=1e-6)
        bn.eval()
        y1 = bn(Tensor(x)).numpy()
        y2 = bn(Tensor(x)).numpy()
        assert np.array_equal(y1, y2)  # eval path must not touch state

    def test_batchnorm_gradcheck(self, rng):
        bn = cast_f64(BatchNorm2d(2))
        x = Tensor(rng.standard_normal((2, 2, 3, 3)))

        def f(t):
            return bn(t).tanh().sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_layernorm_last_axis(self, rng):
        ln = LayerNorm(8)
        x = Tensor(rng.standard_normal((2, 5, 8)) * 4 + 2)
        y = ln(x).numpy()
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-4)

    def test_layernorm_gradcheck(self, rng):
        ln = cast_f64(LayerNorm(6))
        x = Tensor(rng.standard_normal((2, 6)))

        def f(t):
            return ln(t).sigmoid().sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_layernorm_plain_has_no_params(self):
        assert LayerNorm(8, affine=False).param_count() == 0
        assert LayerNorm(8).param_count() == 16


class TestShuffle:
    def test_hand_case_groups2(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1))
        y = channel_shuffle(x, 2).numpy().reshape(-1)
        assert list(y) == [0.0, 2.0, 1.0, 3.0]

    def test_is_a_permutation(self, rng):
        x = rng.standard_normal((2, 8, 3, 3))
        y = channel_shuffle(Tensor(x), 2).numpy()
        assert np.allclose(np.sort(y, axis=1), np.sort(x, axis=1))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            channel_shuffle(Tensor(np.zeros((1, 5, 2, 2))), 2)

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 2, 2)))

        def f(t):
            return channel_shuffle(t, 2).tanh().sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


class TestModules:
    def test_named_parameters_are_unique_and_dotted(self, rng):
        block = C3(8, 8, n=2, rng=rng)
        names = [n for n, _ in block.named_parameters()]
        assert len(names) == len(set(names))
        assert any(n.startswith("m.1.cv2.") for n in names)

    def test_param_count_matches_formula(self, rng):
        conv = ConvBnAct(16, 32, 3, rng=rng)
        assert conv.param_count() == 32 * 16 * 9 + 2 * 32
        lin = Linear(8, 4, rng=rng)
        assert lin.param_count() == 8 * 4 + 4

    def test_conv_cost_formula(self, rng):
        conv = ConvBnAct(16, 32, 3, s=2, rng=rng)
        flops, y = counted_flops(conv, (1, 16, 64, 64))
        assert y.shape == (1, 32, 32, 32)
        assert flops == 2 * (32 * 16 * 9) * 32 * 32

    def test_block_credit_is_the_sum_of_its_convs(self, rng):
        block = C3(8, 8, n=2, rng=rng)
        with no_grad(), count_flops() as count:
            block(Tensor(np.zeros((2, 8, 6, 6), np.float32)))
        convs = [m for m in block.modules() if isinstance(m, Conv2d)]
        assert count[block] == count.total == sum(count[c] for c in convs)
        assert count[block.cv1] == 2 * (4 * 8) * 36 * 2

    def test_c3_reference_param_count(self, rng):
        assert C3(64, 64, n=2, rng=rng).param_count() == 29184
        assert SPPF(256, 256, rng=rng).param_count() == 164608

    def test_bottleneck_residual_needs_matching_channels(self, rng):
        b = Bottleneck(8, 16, shortcut=True, rng=rng)
        assert not b.add
        y = b(Tensor(rng.standard_normal((1, 8, 4, 4))))
        assert y.shape == (1, 16, 4, 4)

    def test_train_eval_toggles_recursively(self, rng):
        block = C3(8, 8, rng=rng)
        block.eval()
        assert not block.m[0].cv1.bn.training
        block.train()
        assert block.m[0].cv1.bn.training

    def test_convbnact_gradcheck(self, rng):
        m = cast_f64(ConvBnAct(2, 4, 3, s=2, act="mish", rng=rng))
        x = Tensor(rng.standard_normal((1, 2, 6, 6)))

        def f(t):
            return m(t).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_convbnact_eval_without_grad_runs_in_place_on_the_conv_output(self, rng):
        m = with_bn_stats(ConvBnAct(4, 8, 3, act="mish", rng=rng), rng).eval()
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        x_before = x.data.copy()
        with no_grad():
            y = m(x)
            want = m.act(m.bn(m.conv(x)))
        assert y._op == "conv2d"  # neither BN nor Mish made a node
        assert y.data.tobytes() == want.data.tobytes()
        assert x.data.tobytes() == x_before.tobytes()

    @pytest.mark.parametrize("act", ["mish", "hswish", "leakyrelu"])
    @pytest.mark.parametrize("training", [False, True])
    def test_convbnact_with_grad_builds_the_composite(self, act, training, rng):
        m = with_bn_stats(ConvBnAct(4, 8, 3, act=act, rng=rng), rng).train(training)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32), requires_grad=True)
        got = [t._op for t in toposort(m(x))]
        want = [t._op for t in toposort(m.act(m.bn(m.conv(x))))]
        assert got == want
        assert "batch_norm" in got

    def test_convbnact_training_without_grad_updates_running_stats(self, rng):
        m = with_bn_stats(ConvBnAct(4, 8, 3, act="mish", rng=rng), rng)
        before = m.bn.running_mean.data.copy()
        with no_grad():
            m(Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32)))
        assert not np.array_equal(m.bn.running_mean.data, before)

    def test_c3_and_sppf_gradcheck(self, rng):
        c3 = cast_f64(C3(4, 4, n=1, rng=rng))
        spp = cast_f64(SPPF(4, 4, k=3, rng=rng))
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))

        def f(t):
            return spp(c3(t)).mean()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_make_divisible(self):
        assert make_divisible(64 * 0.25) == 16
        assert make_divisible(1024 * 0.25) == 256
        assert make_divisible(3) == 8
