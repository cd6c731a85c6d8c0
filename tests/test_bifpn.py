import copy

import numpy as np
import pytest

from lightdet.bifpn import LightBiFpn
from lightdet.gam import GAM
from lightdet.nn import Bottleneck, C3, DSSConv
from lightdet.tensor import Tensor, grad_check, no_grad

from helpers import cast_f64, with_bn_stats
from oracles import channel_shuffle


class TestDSSConv:
    def test_shapes_and_stride(self, rng):
        m = DSSConv(16, 2, act="mish", rng=rng)
        y = m(Tensor(rng.standard_normal((2, 16, 8, 8)).astype(np.float32)))
        assert y.shape == (2, 16, 4, 4)

    def test_param_count(self, rng):
        m = DSSConv(16, act="mish", rng=rng)
        assert m.param_count() == (16 * 9 + 32) + (16 * 16 + 32)

    def test_depthwise_stage_touches_channels_independently(self, rng):
        # before the pointwise mix, channel c of dw depends only on channel c of x
        m = DSSConv(4, act="mish", rng=rng)
        a = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        b = a.copy()
        b[0, 3] += rng.standard_normal((6, 6)).astype(np.float32)
        ya = m.dw(Tensor(a)).numpy()
        yb = m.dw(Tensor(b)).numpy()
        assert np.array_equal(ya[0, :3], yb[0, :3])
        assert not np.allclose(ya[0, 3], yb[0, 3])

    @pytest.mark.parametrize("c", [16, 32, 64, 128])
    @pytest.mark.parametrize("s", [1, 2])
    def test_a_trailing_shuffle_only_relabels_pw(self, c, s):
        # a channel_shuffle after the ungrouped pw conv, as DSSConv once ended,
        # is pw with its output rows and their BN's tensors permuted: the same
        # bits, forward and back
        rng = np.random.default_rng(c + s)
        old = with_bn_stats(DSSConv(c, s, act="mish", rng=rng), rng)
        new = copy.deepcopy(old)
        perm = np.arange(c).reshape(2, c // 2).T.reshape(-1)  # row 2k + g is g*c/2 + k
        bn = new.pw.bn
        for t in (new.pw.conv.weight, bn.weight, bn.bias, bn.running_mean, bn.running_var):
            t.data = t.data[perm].copy()
        x = rng.standard_normal((2, c, 8, 8)).astype(np.float32)
        g = Tensor(rng.standard_normal((2, c, 8 // s, 8 // s)).astype(np.float32))
        y_old, y_new = channel_shuffle(old.pw(old.dw(Tensor(x)))), new(Tensor(x))
        assert np.array_equal(y_old.numpy(), y_new.numpy())
        (y_old * g).sum().backward()
        (y_new * g).sum().backward()
        assert np.array_equal(old.pw.conv.weight.grad[perm], new.pw.conv.weight.grad)
        assert np.array_equal(old.pw.bn.running_var.numpy()[perm], bn.running_var.numpy())
        old.eval(), new.eval()
        with no_grad():
            y_old, y_new = channel_shuffle(old.pw(old.dw(Tensor(x)))), new(Tensor(x))
        assert np.array_equal(y_old.numpy(), y_new.numpy())

    def test_gradcheck(self, rng):
        m = cast_f64(DSSConv(4, act="mish", rng=rng))
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))

        def f(t):
            return m(t).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


class TestDSSC3:
    """The light neck's depthwise-separable C3: `C3(separable=True)`."""

    def test_bottleneck_residual_rule(self, rng):
        for shortcut in (True, False):
            b = Bottleneck(8, shortcut=shortcut, act="mish", separable=True, attention=None,
                           rng=rng)
            assert b.add == shortcut

    def test_reference_param_counts(self, rng):
        plain = C3(160, 32, n=1, shortcut=False, separable=True, act="mish", rng=rng)
        assert plain.param_count() == 7024
        gated = C3(160, 32, n=1, shortcut=False, separable=True,
                   attentions=[GAM(16, rng=rng)], act="mish", rng=rng)
        assert gated.param_count() == 13468

    def test_attention_slot_count_checked(self, rng):
        with pytest.raises(ValueError):
            C3(16, 16, n=2, separable=True, attentions=[None], act="mish", rng=rng)

    def test_forward_shape(self, rng):
        m = C3(24, 16, n=2, separable=True, act="mish", rng=rng)
        y = m(Tensor(rng.standard_normal((1, 24, 6, 6)).astype(np.float32)))
        assert y.shape == (1, 16, 6, 6)

    def test_gradcheck(self, rng):
        m = cast_f64(C3(4, 4, n=1, separable=True, act="mish", rng=rng))
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))

        def f(t):
            return m(t).mean()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4


def tiny_neck(rng):
    return LightBiFpn(c3=8, c4=16, c5=32, mid=4, act="mish", attn_td=None, attn_out4=None,
                      rng=rng)


class TestLightBiFpn:
    def test_level_shapes(self, rng):
        neck = tiny_neck(rng)
        p3 = Tensor(rng.standard_normal((1, 8, 8, 8)).astype(np.float32))
        p4 = Tensor(rng.standard_normal((1, 16, 4, 4)).astype(np.float32))
        p5 = Tensor(rng.standard_normal((1, 32, 2, 2)).astype(np.float32))
        n3, n4, n5 = neck(p3, p4, p5)
        assert n3.shape == (1, 8, 8, 8)
        assert n4.shape == (1, 16, 4, 4)
        assert n5.shape == (1, 32, 2, 2)

    def test_exactly_three_levels(self, rng):
        neck = tiny_neck(rng)
        two = [Tensor(np.zeros((1, 8, 8, 8), np.float32)),
               Tensor(np.zeros((1, 16, 4, 4), np.float32))]
        with pytest.raises(TypeError):
            neck(*two)

    def test_resolution_ratio_checked(self, rng):
        neck = tiny_neck(rng)
        bad = [Tensor(np.zeros((1, 8, 8, 8), np.float32)),
               Tensor(np.zeros((1, 16, 4, 4), np.float32)),
               Tensor(np.zeros((1, 32, 3, 3), np.float32))]
        with pytest.raises(ValueError):
            neck(*bad)

    def test_no_learned_fusion_scalars(self, rng):
        neck = tiny_neck(rng)
        for name, p in neck.named_parameters():
            assert p.size > 1, f"suspicious scalar parameter {name}"
            assert name.rsplit(".", 1)[-1] in ("weight", "bias")

    def test_middle_input_feeds_middle_output_directly(self, rng):
        # the extra bidirectional edge: P4 must reach out4's concat untouched
        neck = tiny_neck(rng)
        p3 = Tensor(rng.standard_normal((1, 8, 8, 8)).astype(np.float32))
        p4a = Tensor(rng.standard_normal((1, 16, 4, 4)).astype(np.float32))
        p5 = Tensor(rng.standard_normal((1, 32, 2, 2)).astype(np.float32))
        # zero every parameter that could carry P4 through the top-down path:
        # kill lat5+td4 so td is constant wrt p4, then check n4 still reacts
        for _, p in neck.lat5.named_parameters():
            p.data = np.zeros_like(p.data)
        for _, p in neck.td4.named_parameters():
            p.data = np.zeros_like(p.data)
        p4b = Tensor(p4a.numpy() + rng.standard_normal((1, 16, 4, 4)).astype(np.float32))
        _, n4a, _ = neck(p3, p4a, p5)
        _, n4b, _ = neck(p3, p4b, p5)
        assert not np.allclose(n4a.numpy(), n4b.numpy())

    def test_full_width_param_total_with_gates(self, rng):
        neck = LightBiFpn(c3=64, c4=128, c5=256, mid=32, act="mish", attn_td=GAM(16, rng=rng),
                          attn_out4=GAM(64, rng=rng), rng=rng)
        assert neck.param_count() == 280392

    def test_gradcheck(self, rng):
        neck = cast_f64(tiny_neck(rng))
        p3 = Tensor(rng.standard_normal((1, 8, 8, 8)))
        p4 = Tensor(rng.standard_normal((1, 16, 4, 4)))
        p5 = Tensor(rng.standard_normal((1, 32, 2, 2)))

        def f(a, b, c):
            n3, n4, n5 = neck(a, b, c)
            return n3.mean() + n4.mean() + n5.mean()

        err, _ = grad_check(f, [p3, p4, p5])
        assert err <= 1e-4
