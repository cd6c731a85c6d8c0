import tracemalloc

import numpy as np
import pytest

from lightdet.nn import (
    BatchNorm2d, Bottleneck, C3, Conv2d, ConvBnAct, LayerNorm, Linear, SPPF, channel_shuffle,
    make_divisible,
)
from lightdet.tensor import (ACT_PAIRS, BN_MOMENTUM, Tensor, activate, count_flops, grad_check,
                             no_grad, toposort)

from helpers import (COMPOSITE_ACTS, cast_f64, composite_bn, counted_flops, eval_block_reference,
                     with_bn_stats)


class TestActivations:
    def test_mish_matches_reference_formula(self, rng):
        x = rng.standard_normal(32) * 3
        got = activate(Tensor(x), "mish").numpy()
        want = x * np.tanh(np.log1p(np.exp(x)))
        assert np.allclose(got, want, atol=1e-9)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation 'swishish'; choose from"):
            ConvBnAct(2, 4, act="swishish", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("name", sorted(ACT_PAIRS))
    def test_activation_gradcheck(self, name, rng):
        # |x| >= 0.3 keeps samples off relu's kink at 0
        raw = rng.uniform(0.3, 2.4, size=12) * rng.choice([-1.0, 1.0], size=12)
        x = Tensor(raw)

        def f(t):
            return activate(t, name).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


class TestNorms:
    def test_batchnorm_train_normalizes(self, rng):
        bn = BatchNorm2d(3)
        bn.bias.data[:] = 10.0  # so relu passes every normalised value through
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3 + 1)
        y = bn(x, "relu").numpy() - 10.0
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(y.std(axis=(0, 2, 3)), 1.0, atol=2e-2)

    def test_batchnorm_running_stats_and_eval(self, rng):
        bn = BatchNorm2d(2)
        x = rng.standard_normal((8, 2, 4, 4)) + 5.0
        bn(Tensor(x.copy()), "relu")  # BN works in place in its input's buffer
        # one update from the initial (0, 1) stats, the variance unbiased
        m = BN_MOMENTUM
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3), ddof=1)
        assert np.allclose(bn.running_mean.numpy(), m * mu, rtol=1e-6)
        assert np.allclose(bn.running_var.numpy(), (1 - m) + m * var, rtol=1e-6)
        bn.eval()
        y1 = bn(Tensor(x.copy()), "relu").numpy()
        y2 = bn(Tensor(x.copy()), "relu").numpy()
        assert np.array_equal(y1, y2)  # eval path must not touch state

    def test_batchnorm_gradcheck(self, rng):
        bn = cast_f64(BatchNorm2d(2))
        x = Tensor(rng.standard_normal((2, 2, 3, 3)))

        def f(t):
            return bn(t * 1.0, "mish").tanh().sum()  # a fresh buffer for BN to work in

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
        y = channel_shuffle(x).numpy().reshape(-1)
        assert list(y) == [0.0, 2.0, 1.0, 3.0]

    def test_is_a_permutation(self, rng):
        x = rng.standard_normal((2, 8, 3, 3))
        y = channel_shuffle(Tensor(x)).numpy()
        assert np.allclose(np.sort(y, axis=1), np.sort(x, axis=1))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            channel_shuffle(Tensor(np.zeros((1, 5, 2, 2))))

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 2, 2)))

        def f(t):
            return channel_shuffle(t).tanh().sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


class TestModules:
    def test_named_parameters_are_unique_and_dotted(self, rng):
        block = C3(8, 8, n=2, act="mish", rng=rng)
        names = [n for n, _ in block.named_parameters()]
        assert len(names) == len(set(names))
        assert any(n.startswith("m.1.cv2.") for n in names)

    def test_param_count_matches_formula(self, rng):
        conv = ConvBnAct(16, 32, 3, act="mish", rng=rng)
        assert conv.param_count() == 32 * 16 * 9 + 2 * 32
        lin = Linear(8, 4, rng=rng)
        assert lin.param_count() == 8 * 4 + 4

    def test_conv_cost_formula(self, rng):
        conv = ConvBnAct(16, 32, 3, s=2, act="mish", rng=rng)
        flops, y = counted_flops(conv, (1, 16, 64, 64))
        assert y.shape == (1, 32, 32, 32)
        assert flops == 2 * (32 * 16 * 9) * 32 * 32

    def test_block_credit_is_the_sum_of_its_convs(self, rng):
        block = C3(8, 8, n=2, act="mish", rng=rng)
        with no_grad(), count_flops() as count:
            block(Tensor(np.zeros((2, 8, 6, 6), np.float32)))
        convs = [m for m in block.modules() if isinstance(m, Conv2d)]
        assert count[block] == count.total == sum(count[c] for c in convs)
        assert count[block.cv1] == 2 * (4 * 8) * 36 * 2

    def test_c3_reference_param_count(self, rng):
        assert C3(64, 64, n=2, act="mish", rng=rng).param_count() == 29184
        assert SPPF(256, act="mish", rng=rng).param_count() == 164608

    def test_bottleneck_residual_needs_matching_channels(self, rng):
        # one width c for input, branch and output, so the residual always adds
        b = Bottleneck(8, shortcut=True, act="mish", separable=False, attention=None, rng=rng)
        assert b.add
        x = Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        with no_grad():
            assert np.array_equal(b(x).numpy(), x.numpy() + b.cv2(b.cv1(x)).numpy())
        with pytest.raises(ValueError, match="input channels"):
            b(Tensor(np.zeros((1, 4, 4, 4), np.float32)))

    def test_train_eval_toggles_recursively(self, rng):
        block = C3(8, 8, act="mish", rng=rng)
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
            want = eval_block_reference(m, x)
        assert y._op == "conv2d"  # neither BN nor Mish made a node
        assert y.data.tobytes() == want.tobytes()
        assert x.data.tobytes() == x_before.tobytes()

    @pytest.mark.parametrize("act", ["mish", "silu", "relu"])
    @pytest.mark.parametrize("training", [False, True])
    def test_convbnact_with_grad_is_one_bn_act_node_in_training(self, act, training, rng):
        m = with_bn_stats(ConvBnAct(4, 8, 3, act=act, rng=rng), rng).train(training)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32), requires_grad=True)
        if training:
            assert [t._op for t in toposort(m(x)) if t._prev] == ["conv2d", "batch_norm_act"]
        else:  # eval builds no BN node, so it refuses to run with gradients
            with pytest.raises(ValueError, match=r"no_grad\(\)"):
                m(x)

    @pytest.mark.parametrize("act", sorted(ACT_PAIRS))
    def test_training_node_matches_the_composite_float64(self, act):
        def block():
            m = ConvBnAct(4, 8, 3, act=act, rng=np.random.default_rng(6))
            return cast_f64(with_bn_stats(m, np.random.default_rng(7)))

        fused, ref = block(), block()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 6, 6))
        r = Tensor(rng.standard_normal((2, 8, 6, 6)))
        xf, xc = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        yf, yc = fused(xf), COMPOSITE_ACTS[act](composite_bn(ref.bn, ref.conv(xc)))
        assert yf._op == "batch_norm_act" and yf.dtype == np.float64
        assert np.max(np.abs(yf.numpy() - yc.numpy())) <= 1e-12
        (yf * r).sum().backward()
        (yc * r).sum().backward()
        for a, b in zip([xf] + fused.parameters(), [xc] + ref.parameters()):
            assert a.grad.dtype == np.float64 and np.max(np.abs(a.grad - b.grad)) <= 1e-10
        # both sides round the same float64 statistics to float32
        for (_, a), (_, b) in zip(fused.named_buffers(), ref.named_buffers()):
            np.testing.assert_allclose(a.numpy(), b.numpy(), rtol=1e-6)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_silu_equals_its_two_node_form_bit_for_bit(self, dt, rng):
        # e^-|x| is subnormal in float32 at |x| = 90 and underflows to 0 at 800
        x = np.concatenate([np.linspace(-4.0, 4.0, 17), rng.standard_normal(40) * 4,
                            [-800.0, -90.0, -30.0, 30.0, 90.0, 800.0]]).astype(dt)
        g = rng.standard_normal(x.shape).astype(dt)
        xf, xc = Tensor(x, requires_grad=True), Tensor(x.copy(), requires_grad=True)
        yf, yc = activate(xf, "silu"), COMPOSITE_ACTS["silu"](xc)
        assert yf.data.tobytes() == yc.data.tobytes()
        (yf * Tensor(g)).sum().backward()
        (yc * Tensor(g)).sum().backward()
        assert xf.grad.dtype == dt and xf.grad.tobytes() == xc.grad.tobytes()

    def test_training_block_keeps_two_arrays_of_its_output_size(self):
        # the normalised input and the activation's output; three nodes (conv,
        # BN, activation) would also keep the conv's and BN's outputs: four
        rng = np.random.default_rng(8)
        m = ConvBnAct(8, 16, 3, act="mish", rng=rng)
        x = Tensor(rng.standard_normal((2, 8, 64, 64)).astype(np.float32), requires_grad=True)
        out_bytes = 2 * 16 * 64 * 64 * 4
        tracemalloc.start()
        try:
            y = m(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.shape == (2, 16, 64, 64)
        assert held < 2.5 * out_bytes, f"{held / out_bytes:.2f} output-sized arrays held"

    def test_convbnact_training_without_grad_updates_running_stats(self, rng):
        m = with_bn_stats(ConvBnAct(4, 8, 3, act="mish", rng=rng), rng)
        before = m.bn.running_mean.data.copy()
        with no_grad():
            m(Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32)))
        assert not np.array_equal(m.bn.running_mean.data, before)

    def test_c3_and_sppf_gradcheck(self, rng):
        c3 = cast_f64(C3(4, 4, n=1, act="mish", rng=rng))
        spp = cast_f64(SPPF(4, act="mish", rng=rng))
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))

        def f(t):
            return spp(c3(t)).mean()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_make_divisible(self):
        assert make_divisible(64 * 0.25) == 16
        assert make_divisible(1024 * 0.25) == 256
        assert make_divisible(3) == 8
