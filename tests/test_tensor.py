import ast
import gc
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from lightdet import tensor as tensor_mod
from lightdet.boxes import box_loss
from lightdet.nn import BatchNorm2d, Linear
from lightdet.tensor import (
    ACT_PAIRS, Tensor, _accum, activate, batch_norm, concat, conv2d, count_flops, grad_check,
    max_pool2d, no_grad, toposort, upsample_nearest2x,
)

from helpers import COMPOSITE_ACTS, composite_bn


def matmul_loops(a, b):
    # deliberately dumb triple loop oracle
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestForward:
    def test_matmul_against_loop_oracle(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 9))
        got = (Tensor(a) @ Tensor(b)).numpy()
        want = matmul_loops(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_softmax_hand_case(self):
        x = Tensor(np.array([0.0, np.log(3.0)]))
        s = x.softmax(axis=-1).numpy()
        assert np.allclose(s, [0.25, 0.75], atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 6)) * 10)
        s = x.softmax(axis=-1).numpy()
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
        assert (s >= 0).all()

    def test_sigmoid_extreme_inputs_stable(self, rng):
        x = Tensor(np.array([-500.0, 500.0, 0.0], dtype=np.float32))
        s = x.sigmoid().numpy()
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(0.0, abs=1e-6)
        assert s[1] == pytest.approx(1.0, abs=1e-6)
        mid = rng.standard_normal(16)  # and the plain formula where it does not overflow
        assert np.allclose(Tensor(mid).sigmoid().numpy(), 1 / (1 + np.exp(-mid)), atol=1e-12)

    def test_softplus_no_overflow(self):
        x = Tensor(np.array([200.0, -200.0], dtype=np.float32))
        y = x.softplus().numpy()
        assert np.isfinite(y).all()
        assert y[0] == pytest.approx(200.0, rel=1e-6)

    def test_dtype_default_and_promotion(self):
        a = Tensor([1, 2, 3])
        assert a.dtype == np.float32
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        assert (a + b).dtype == np.float64

    def test_broadcast_add_shapes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal((4,)))
        assert (a + b).shape == (2, 3, 4)


# every op built through _unary, applied to one (1, 2, 4, 4) input in (0.1, 0.9)
UNARY_OPS = {
    "neg": lambda t: -t,
    "pow": lambda t: t ** 3,
    "sum": lambda t: t.sum(axis=1),
    "exp": Tensor.exp,
    "sqrt": Tensor.sqrt,
    "abs": Tensor.abs,
    "tanh": Tensor.tanh,
    "sigmoid": Tensor.sigmoid,
    "softplus": Tensor.softplus,
    "sin": Tensor.sin,
    "arcsin": Tensor.arcsin,
    "arctan": Tensor.arctan,
    "clamp": lambda t: t.clamp(0.3, 0.7),
    "reshape": lambda t: t.reshape(2, -1),
    "transpose": lambda t: t.transpose(0, 2, 3, 1),
    "getitem": lambda t: t[:, 1:, ::2],
    "softmax": lambda t: t.softmax(axis=1),
    **{name: (lambda t, n=name: activate(t, n)) for name in ACT_PAIRS},
    "max_pool2d": lambda t: max_pool2d(t, 2, 2),
    "max_pool2d_padded": lambda t: max_pool2d(t, 3, 2, padding=1),
    "upsample_nearest2x": upsample_nearest2x,
}


# inputs where the piecewise forms could part ways: signed zeros, infinities,
# NaN, subnormals, and values where e^-|x| underflows
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 0.5, -0.5, 3.0, -3.0,
            90.0, -90.0, 800.0, -800.0, 1e30, -1e30]


class TestActivationForms:
    """The np.maximum forms against the np.where formulas they replaced."""

    def _inputs(self, rng, dt):
        x = np.concatenate([np.array(SPECIALS), rng.standard_normal(40) * 4]).astype(dt)
        return x, rng.standard_normal(x.shape).astype(dt)

    def _run(self, op, x, g):
        t = Tensor(x, requires_grad=True)
        y = op(t)
        y._backward(g)
        return y.numpy(), t.grad

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_sigmoid_bit_identical_to_where_form(self, rng, dt):
        x, g = self._inputs(rng, dt)
        z = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, z) / (1.0 + z)
        got, grad = self._run(Tensor.sigmoid, x, g)
        assert same_bits(got, want)
        assert same_bits(grad, g * want * (1.0 - want))

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_relu(self, rng, dt):
        x, g = self._inputs(rng, dt)
        got, grad = self._run(lambda t: activate(t, "relu"), x, g)
        # +0.0 below zero and at -0.0; NaN stays NaN; relu(+inf) is +inf, relu(-inf) 0
        want = np.where(np.isnan(x) | (x > 0), x, 0.0).astype(dt)
        assert same_bits(got, want)
        assert same_bits(grad, g * np.where(x > 0, 1.0, 0.0).astype(dt))


class TestBackward:
    def test_scalar_only_root(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_add_broadcast_grads(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 2.0)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * x + x * 3).sum()  # d/dx = 2x + 3 = 7
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_toposort_parents_first(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        y = (x * 2 + x.tanh()).sum()
        order = toposort(y)
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for p in node._prev:
                assert pos[id(p)] < pos[id(node)]

    def test_no_grad_builds_no_graph(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert y._prev == ()
        assert not y.requires_grad

        x = Tensor(rng.uniform(0.1, 0.9, (1, 2, 4, 4)), requires_grad=True)
        for name, op in UNARY_OPS.items():
            with no_grad():
                y = op(x)
            assert y._backward is None and y._prev == () and not y.requires_grad, name
            y = op(x)
            assert y._prev == (x,) and y.requires_grad, name
            assert len(toposort(y)) == 2, name  # one node added, even by the padded max-pool
            x.grad = None
            y._backward(np.ones_like(y.data))
            assert x.grad.shape == x.shape, name

    def test_only_multi_input_ops_wire_their_own_node(self):
        # every one-input op goes through _unary; a new multi-input op joins this list on purpose
        def calls(node):
            return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "_node" for n in ast.walk(node))

        tree = ast.parse(inspect.getsource(tensor_mod))
        defs = [d for d in tree.body if isinstance(d, ast.FunctionDef)]
        defs += [d for c in tree.body if isinstance(c, ast.ClassDef)
                 for d in c.body if isinstance(d, ast.FunctionDef)]
        callers = {d.name: calls(d) for d in defs if calls(d)}
        assert callers == dict.fromkeys(
            ("_unary", "_binary", "__matmul__", "concat", "batch_norm", "conv2d"), 1)
        assert calls(tree) == 6  # none outside a function
        assert not hasattr(Tensor, "pad2d")

    def test_graph_is_freed_without_the_cycle_collector(self, rng):
        # a backward closure that held its own output node would form a cycle,
        # and every graph would then live until the cycle collector ran; the
        # graph below runs every kind of backward closure in tensor.py: the one
        # _unary installs (for the activations, a padded max_pool2d, up2x and the
        # Tensor methods, the box losses' sqrt, sin, arcsin, arctan, clamp and
        # neg among them), _binary's, matmul's, concat's, batch_norm's and conv2d's
        x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 1, 3, 3)), requires_grad=True)
        boxes = np.concatenate([rng.uniform(0.3, 0.7, (4, 2)), rng.uniform(0.1, 0.4, (4, 2))], 1)
        pred = Tensor(boxes, requires_grad=True)
        gt = Tensor(boxes[::-1].copy())
        gc.collect()
        gc.disable()
        try:
            y = conv2d(x, w, padding=1, groups=4)
            y = batch_norm(y, Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4)), "relu")[0]
            y = upsample_nearest2x(max_pool2d(activate(y, "mish"), 2, 2, padding=1))
            y = concat([y.sigmoid(), y.softplus(), y.tanh(), activate(y, "gelu"),
                        activate(y, "silu")], axis=1)
            y = (y.exp() - y) ** 2 / (y.abs() + 1.0)
            z = y.reshape(2, -1).swapaxes(0, 1)[:5].softmax(axis=0)
            loss = (z @ Tensor(np.ones((2, 3)), requires_grad=True)).mean()
            loss = loss + box_loss("siou", pred, gt).sum() + box_loss("ciou", pred, gt).sum()
            loss.backward()
            del y, z, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_backward_frees_interior_gradients_and_keeps_leaf_ones(self):
        def graph():
            rng = np.random.default_rng(3)
            x, w1, wd, w2, b2 = (Tensor(rng.standard_normal(s).astype(np.float32),
                                        requires_grad=True)
                                 for s in ((2, 4, 6, 6), (8, 4, 1, 1), (8, 1, 3, 3),
                                           (3, 8, 3, 3), (3,)))
            y = activate(conv2d(x, w1), "mish")
            y = batch_norm(conv2d(y, wd, padding=1, groups=8),
                           Tensor(np.ones(8, np.float32), requires_grad=True),
                           Tensor(np.zeros(8, np.float32), requires_grad=True), "relu")[0]
            y = conv2d(y + activate(y, "gelu"), w2, b2, stride=2, padding=1)
            return (y * y).mean()

        def backward_keeping_every_grad(root):
            # Tensor.backward before interior gradients were freed
            root.grad = np.ones_like(root.data)
            for node in reversed(toposort(root)):
                if node._backward is not None:
                    node._backward(node.grad)

        old_root, new_root = graph(), graph()
        backward_keeping_every_grad(old_root)
        new_root.backward()
        old_nodes, new_nodes = toposort(old_root), toposort(new_root)
        assert all(t.grad is not None for t in old_nodes)
        interior = [t for t in new_nodes if t._backward is not None]
        assert len(interior) > 5 and all(t.grad is None for t in interior)
        leaves = [(o, t) for o, t in zip(old_nodes, new_nodes) if t._backward is None]
        assert len(leaves) == 7  # x, three conv weights, a conv bias, BN weight and bias
        for old, new in leaves:
            assert new.grad is not None and np.array_equal(new.grad, old.grad)


class TestGradCheck:
    def test_composite_chain(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))

        def f(t):
            return ((t * 2 + 1).tanh() * t.sigmoid()).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_matmul_and_softmax(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))

        def f(a_, b_):
            return ((a_ @ b_).softmax(axis=-1).sum(axis=0) ** 2).sum()

        err, _ = grad_check(f, [a, b])
        assert err <= 1e-4

    def test_reductions_and_shape_ops(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))

        def f(t):
            y = t.transpose(1, 0, 2).reshape(3, 8)
            return (y.softplus().mean() + (y.sum(axis=0, keepdims=True) ** 2).mean()
                    + y.swapaxes(0, 1).mean(axis=1).tanh().sum())

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_elementwise_zoo(self, rng):
        # away from kinks: |x| in (0.2, 0.9) keeps clamp/abs/arcsin smooth
        raw = rng.uniform(0.2, 0.9, size=(2, 5)) * rng.choice([-1.0, 1.0], size=(2, 5))
        x = Tensor(raw)

        def f(t):
            return (t.abs().sqrt() + t.arcsin().sin() + t.arctan() + activate(t, "gelu")
                    + t.softplus() + activate(t, "silu")).sum()

        err, rep = grad_check(f, [x])
        assert err <= 1e-4
        assert not any(r[-1] for r in rep)  # nothing near a kink by construction

    def test_concat_slice_maximum_minimum(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))

        def f(a_, b_):
            c = concat([a_, b_], axis=1)
            return c[:, 1:4].sum() + a_.maximum(b_ * 2).sum() + (a_.minimum(b_) * a_).sum()

        err, _ = grad_check(f, [a, b])
        assert err <= 1e-4

    def test_kink_flagging(self):
        x = Tensor(np.array([0.0, 0.5]))  # element 0 sits exactly on the relu kink

        def f(t):
            return activate(t, "relu").sum()

        _, rep = grad_check(f, [x])
        flags = {k: kink for (_, k, _, _, _, kink) in rep}
        assert flags[0]
        assert not flags[1]

    def test_wrong_gradient_is_caught(self, rng):
        # negative control: a deliberately wrong backward must fail the check
        x = Tensor(rng.standard_normal((2, 2)))

        def f(t):
            out = t.tanh()
            bad = Tensor(out.numpy(), requires_grad=True)
            bad._prev = (t,)
            bad.requires_grad = True

            def _bw(g):
                _accum(t, g * 0.5)  # not the tanh derivative

            bad._backward = _bw
            return bad.sum()

        err, _ = grad_check(f, [x])
        assert err > 1e-2

    def test_promotes_and_keeps_the_given_tensors(self, rng):
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        err, _ = grad_check(lambda t: (t * t).sum(), [x])
        assert err <= 1e-4
        assert x.requires_grad and x.dtype == np.float64
        assert np.allclose(x.grad, 2 * x.data)

    def test_non_contiguous_input(self, rng):
        # a transposed view: the perturbations must still reach the tensor
        x = Tensor(rng.standard_normal((4, 3)).T)
        err, rep = grad_check(lambda t: (t * t).sum(), [x])
        assert err <= 1e-4
        assert all(num != 0.0 for _, _, _, num, _, _ in rep)

    def test_checks_a_module_parameter_where_it_lives(self, rng):
        # fn reaches the weight only through the layer, never through its argument
        lin = Linear(3, 2, rng=rng)
        weight = lin.weight
        x = Tensor(rng.standard_normal((4, 3)))
        err, rep = grad_check(lambda t, _w: lin(t).tanh().sum(), [x, weight])
        assert err <= 1e-4
        assert lin.weight is weight and weight.grad.shape == (3, 2)
        assert all(an != 0.0 for idx, _, an, _, _, _ in rep if idx == 1)


def _bn_pair(rng, training):
    """Two identical float64 BatchNorm2d layers with non-trivial affine and running stats."""
    layers = []
    for _ in range(2):
        bn = BatchNorm2d(3)
        bn.weight = Tensor(np.array([0.5, 1.5, -0.75]), requires_grad=True)
        bn.bias = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
        bn.running_mean.data = np.array([0.2, -0.4, 1.0])
        bn.running_var.data = np.array([0.5, 2.0, 1.25])
        layers.append(bn.train(training))
    x = rng.standard_normal((4, 3, 5, 5)) * 2.0 + 0.5
    r = rng.standard_normal((4, 3, 5, 5))
    return layers, x, r


class TestFusedLayers:
    def test_mish_matches_composite_float64(self, rng):
        raw = np.concatenate([rng.standard_normal(200) * 8.0, np.linspace(-30.0, 30.0, 61)])
        xf = Tensor(raw, requires_grad=True)
        xc = Tensor(raw, requires_grad=True)
        fused, ref = activate(xf, "mish"), COMPOSITE_ACTS["mish"](xc)
        assert fused._op == "mish" and fused._prev == (xf,) and fused.dtype == np.float64
        assert np.max(np.abs(fused.numpy() - ref.numpy())) <= 1e-12
        fused.sum().backward()
        ref.sum().backward()
        assert np.max(np.abs(xf.grad - xc.grad)) <= 1e-12

    def test_mish_float32_wide_range_is_silent(self):
        x = np.linspace(-100.0, 100.0, 2001, dtype=np.float32)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            y = activate(Tensor(x), "mish").numpy()
        assert y.dtype == np.float32 and np.isfinite(y).all()
        assert y[-1] == 100.0 and -1e-30 < y[0] < 0.0

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_matches_composite_float64(self, rng, training):
        (fused, ref), x, r = _bn_pair(rng, training)
        xf, xc = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        yc = COMPOSITE_ACTS["mish"](composite_bn(ref, xc))
        if not training:  # in place, so only under no_grad; eval has no backward
            with no_grad():
                yf = fused(xf * 1.0, "mish")
            assert yf.dtype == np.float64
            assert np.max(np.abs(yf.numpy() - yc.numpy())) <= 1e-12
            for name in ("running_mean", "running_var"):  # neither side touches them
                assert np.array_equal(getattr(fused, name).numpy(), getattr(ref, name).numpy())
            return
        yf = fused(xf * 1.0, "mish")  # a fresh buffer for the node to normalise in
        assert yf._op == "batch_norm_act" and yf.dtype == np.float64
        assert np.max(np.abs(yf.numpy() - yc.numpy())) <= 1e-12
        (yf * Tensor(r)).sum().backward()
        (yc * Tensor(r)).sum().backward()
        for a, b in ((xf, xc), (fused.weight, ref.weight), (fused.bias, ref.bias)):
            assert a.grad.shape == a.shape
            assert np.max(np.abs(a.grad - b.grad)) <= 1e-10
        # both sides round the same float64 statistics to float32
        for name in ("running_mean", "running_var"):
            got, want = getattr(fused, name).numpy(), getattr(ref, name).numpy()
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_batch_norm_returns_the_statistics_it_used(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        _, mean, var = batch_norm(Tensor(x.copy()), w, b, "relu")
        assert np.allclose(mean, x.mean(axis=(0, 2, 3)), atol=1e-12)
        assert np.allclose(var, x.var(axis=(0, 2, 3)), atol=1e-12)


class TestChunkedActivations:
    """Each ACT_PAIRS pair on a contiguous array above ACT_BLOCK values runs in
    chunks; with the block made larger than any input it runs whole."""

    @staticmethod
    def _inputs(n, dt):
        rng = np.random.default_rng(n)
        x = (rng.standard_normal(n) * 5).astype(dt)
        x[:len(SPECIALS)] = SPECIALS
        return x, rng.standard_normal(n).astype(dt)

    @staticmethod
    def _run(name, x, g):
        f, df = ACT_PAIRS[name]
        out = x.copy()
        with np.errstate(all="ignore"):
            return f(x, np.empty_like(x)), f(out, out), df(x, g)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "3B+17"])
    @pytest.mark.parametrize("name", sorted(ACT_PAIRS))
    def test_chunked_equals_whole_bit_for_bit(self, name, extra, dt, monkeypatch):
        block = tensor_mod.ACT_BLOCK
        n = 3 * block + 17 if extra == "3B+17" else block + extra
        x, g = self._inputs(n, dt)
        x = x.reshape(1, -1, 1)  # any C-contiguous shape is run as its flat view
        g = g.reshape(x.shape)
        chunked = self._run(name, x, g)
        monkeypatch.setattr(tensor_mod, "ACT_BLOCK", 4 * n)
        whole = self._run(name, x, g)
        for a, b in zip(chunked, whole):
            assert same_bits(a, b)

    @pytest.mark.parametrize("name", sorted(ACT_PAIRS))
    def test_a_strided_view_runs_whole_and_in_place(self, name):
        n = 2 * tensor_mod.ACT_BLOCK + 5
        x, g = self._inputs(2 * n, np.float32)
        xv, gv = x[::2], g[::2]
        assert not xv.flags.c_contiguous
        got = self._run(name, xv, gv)
        want = self._run(name, xv.copy(), gv.copy())
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        out = x.copy()
        with np.errstate(all="ignore"):
            ACT_PAIRS[name][0](out[::2], out[::2])
        assert out[::2].tobytes() == want[0].tobytes()
        assert out[1::2].tobytes() == x[1::2].tobytes()  # the gaps are left alone


def maxpool_scan(x, k, s, p, g=None):
    """Oracle: the strict `>` tap scan max_pool2d ran before its separable max.

    Returns the output, the input gradient an upstream gradient g sends back
    (None without g), and the winning tap index of every output.
    """
    xd = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    n, c, hp, wp = xd.shape
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    out = np.empty((n, c, ho, wo), x.dtype)
    wins = {}
    for idx in np.ndindex(n, c, ho, wo):
        b, ch, oi, oj = idx
        best, arg = -np.inf, 0
        for t in range(k * k):
            v = xd[b, ch, oi * s + t // k, oj * s + t % k]
            if v > best:
                best, arg = v, t
        out[idx] = best
        wins[idx] = arg
    if g is None:
        return out, None, list(wins.values())
    gx = np.zeros_like(xd)
    for t in range(k * k):  # tap by tap, so a pixel two windows share sums in tap order
        for (b, ch, oi, oj), arg in wins.items():
            if arg == t:
                gx[b, ch, oi * s + t // k, oj * s + t % k] += g[b, ch, oi, oj]
    return out, gx[:, :, p:hp - p, p:wp - p], list(wins.values())


def maxpool_run(x, k, s, p, g):
    t = Tensor(x, requires_grad=True)
    y = max_pool2d(t, k, s, padding=p)
    y._backward(g)
    return y.numpy(), t.grad


class TestSpatial:
    @pytest.mark.parametrize("value", [0.0, -np.inf])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 3, 5, 7), (2, 1, 9, 3)])
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_pad2d_equals_np_pad(self, rng, value, p, shape, dt):
        x = rng.standard_normal(shape).astype(dt)
        want = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=value)
        assert same_bits(tensor_mod._pad2d(x, p, value), want)
        assert tensor_mod._pad2d(x, 0, value) is x

    def test_conv2d_matches_direct_loops(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).numpy()
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros_like(out)
        for n in range(2):
            for co in range(4):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        patch = xp[n, :, i * 2:i * 2 + 3, j * 2:j * 2 + 3]
                        want[n, co, i, j] = (patch * w[co]).sum() + b[co]
        assert np.max(np.abs(out - want)) <= 1e-10

    def test_grouped_conv_matches_per_group_loops(self, rng):
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((6, 2, 3, 3))  # groups=2: 2 in-ch per group
        out = conv2d(Tensor(x), Tensor(w), padding=1, groups=2).numpy()
        want = np.zeros_like(out)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for co in range(6):
            g = co // 3
            for i in range(5):
                for j in range(5):
                    patch = xp[0, g * 2:(g + 1) * 2, i:i + 3, j:j + 3]
                    want[0, co, i, j] = (patch * w[co]).sum()
        assert np.max(np.abs(out - want)) <= 1e-10

    def test_conv2d_shape_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_conv2d_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        b = Tensor(rng.standard_normal(3) * 0.1)

        def f(x_, w_, b_):
            return conv2d(x_, w_, b_, stride=2, padding=1).tanh().sum()

        err, _ = grad_check(f, [x, w, b])
        assert err <= 1e-4

    def test_depthwise_conv_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.5)

        def f(x_, w_):
            return conv2d(x_, w_, padding=1, groups=4).sigmoid().sum()

        err, _ = grad_check(f, [x, w])
        assert err <= 1e-4

    def test_maxpool_forward_and_grad(self, rng):
        # 3x3 stride 2 padding 1, where every tap wins some window, and 2x2 at
        # stride 2
        for dt in (np.float32, np.float64):
            x = rng.standard_normal((2, 6, 9, 9)).astype(dt)
            g = rng.standard_normal((2, 6, 5, 5)).astype(dt)
            want, gwant, wins = maxpool_scan(x, 3, 2, 1, g)
            assert set(wins) == set(range(9))
            got, ggot = maxpool_run(x, 3, 2, 1, g)
            assert same_bits(got, want) and same_bits(ggot, gwant)
            want, gwant, _ = maxpool_scan(x, 2, 2, 0, g[..., :4, :4])
            got, ggot = maxpool_run(x, 2, 2, 0, g[..., :4, :4])
            assert same_bits(got, want) and same_bits(ggot, gwant)

        # the padding never wins, even over an all-negative input
        xn = -np.abs(rng.standard_normal((1, 2, 5, 5)))
        got = max_pool2d(Tensor(xn), 3, 2, padding=1).numpy()
        for i in range(3):
            for j in range(3):
                win = xn[..., max(2 * i - 1, 0):2 * i + 2, max(2 * j - 1, 0):2 * j + 2]
                assert np.array_equal(got[..., i, j], win.max(axis=(2, 3)))

    def test_maxpool_ties_send_the_whole_gradient_to_the_first_tap(self, rng):
        # a constant plateau: every window ties, and the first in-bounds tap in
        # (i, j) order takes the gradient
        x = np.full((1, 2, 5, 5), 0.5, np.float32)
        g = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        want, gwant, _ = maxpool_scan(x, 3, 2, 1, g)
        got, ggot = maxpool_run(x, 3, 2, 1, g)
        assert same_bits(got, want) and same_bits(ggot, gwant)
        first = np.zeros_like(x)
        for i, r in enumerate((0, 1, 3)):  # window i spans input rows 2i - 1 .. 2i + 1
            for j, c in enumerate((0, 1, 3)):
                first[..., r, c] = g[..., i, j]
        assert same_bits(ggot, first)

        # SPPF's chained 5x5 stride-1 pools on a few levels: pooled maps are
        # mostly plateaus, and -0.0 ties 0.0, the max of most windows of the
        # non-positive channel 0
        x = rng.integers(-2, 3, (2, 3, 8, 8)).astype(np.float32) * np.float32(0.5)
        x[:, 0] = -np.abs(x[:, 0])
        x[x == 0] = rng.choice(np.array([0.0, -0.0], np.float32), int((x == 0).sum()))
        gs = [rng.standard_normal(x.shape).astype(np.float32) for _ in range(3)]
        t = Tensor(x, requires_grad=True)
        p1 = max_pool2d(t, 5, 1, padding=2)
        p2 = max_pool2d(p1, 5, 1, padding=2)
        p3 = max_pool2d(p2, 5, 1, padding=2)
        (p1 * Tensor(gs[0]) + p2 * Tensor(gs[1]) + p3 * Tensor(gs[2])).sum().backward()
        w1, _, _ = maxpool_scan(x, 5, 1, 2)
        w2, _, _ = maxpool_scan(w1, 5, 1, 2)
        w3, g3, _ = maxpool_scan(w2, 5, 1, 2, gs[2])
        _, g2, _ = maxpool_scan(w1, 5, 1, 2, gs[1] + g3)
        _, g1, _ = maxpool_scan(x, 5, 1, 2, gs[0] + g2)
        for got, want in ((p1.numpy(), w1), (p2.numpy(), w2), (p3.numpy(), w3), (t.grad, g1)):
            assert same_bits(got, want)

    def test_maxpool_nan_reaches_the_output(self):
        x = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)
        x[0, 0, 2, 3] = np.nan
        got = max_pool2d(Tensor(x), 3, 2, padding=1).numpy()[0, 0]
        # input (2, 3) lies in window row 1 and in window columns 1 and 2
        hit = np.zeros((3, 3), bool)
        hit[1, 1:] = True
        assert np.array_equal(np.isnan(got), hit)
        assert np.array_equal(got[~hit], maxpool_scan(x, 3, 2, 1)[0][0, 0][~hit])

    def test_sppf_style_pool_keeps_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        assert max_pool2d(x, 5, 1, padding=2).shape == (1, 3, 8, 8)

    def test_upsample_nearest_and_grad(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        up = upsample_nearest2x(Tensor(x)).numpy()
        assert up.shape == (1, 2, 6, 6)
        assert np.allclose(up[0, 0, ::2, ::2], x[0, 0])
        assert np.allclose(up[0, 0, 1::2, ::2], x[0, 0])

        xt = Tensor(rng.standard_normal((1, 2, 3, 3)))

        def f(t):
            return upsample_nearest2x(t).tanh().sum()

        err, _ = grad_check(f, [xt])
        assert err <= 1e-4



def im2col_oracle(x, kh, kw, stride, padding):
    """Columns (n, c, kh*kw, ho, wo) of the zero-padded x, one strided window per tap."""
    n, c = x.shape[:2]
    xd = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xd.shape[2:]
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xd[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(n, c, kh * kw, ho, wo)


def col2im_oracle(gcols, x_shape, kh, kw, stride, padding):
    """Adjoint of im2col_oracle: each tap's window added into a zeroed padded map, in tap order."""
    n, c, h, wd = x_shape
    ho, wo = gcols.shape[-2:]
    gx = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i * kw + j]
    return gx[:, :, padding:padding + h, padding:padding + wd]


def conv2d_einsum(x, w, b, g, stride, padding, groups):
    """Oracle: the im2col + einsum contraction conv2d ran before its matmul paths.

    Returns the output for inputs x, w, b and the gradients (gx, gw, gb) that an
    upstream gradient g sends back.
    """
    n, c = x.shape[:2]
    cout, cpg, kh, kw = w.shape
    cols = im2col_oracle(x, kh, kw, stride, padding)
    ho, wo = cols.shape[-2:]
    cpgk = cpg * kh * kw
    cols_g = cols.reshape(n, groups, cpgk, ho * wo)
    wg = w.reshape(groups, cout // groups, cpgk)
    out = np.einsum("gok,ngkl->ngol", wg, cols_g, optimize=True).reshape(n, cout, ho, wo)
    out = out + b.reshape(1, cout, 1, 1)
    gg = g.reshape(n, groups, cout // groups, ho * wo)
    gw = np.einsum("ngol,ngkl->gok", gg, cols_g, optimize=True).reshape(w.shape)
    gcols = np.einsum("gok,ngol->ngkl", wg, gg, optimize=True).reshape(n, c, kh * kw, ho, wo)
    gx = col2im_oracle(gcols, x.shape, kh, kw, stride, padding)
    return out, (gx, gw, g.sum(axis=(0, 2, 3)))


# (batch, in, out, kernel, stride, padding, groups, (h, w))
CONV_CASES = {
    "1x1_s1_b4": (4, 6, 8, 1, 1, 0, 1, (5, 5)),  # pointwise: the input is the column matrix
    "1x1_s1_g2": (1, 4, 6, 1, 1, 0, 2, (5, 5)),
    "1x1_s2_b4": (4, 4, 6, 1, 2, 0, 1, (7, 7)),  # im2col; phases (0, 1), (1, 0), (1, 1) unread
    "1x1_s2_p1": (2, 4, 6, 1, 2, 1, 1, (6, 5)),  # only x's odd rows and columns are read
    "3x3_s1": (1, 3, 5, 3, 1, 1, 1, (6, 6)),
    "3x3_s1_hw": (2, 3, 5, 3, 1, 1, 1, (5, 9)),
    "3x3_s2_b4": (4, 3, 5, 3, 2, 1, 1, (7, 7)),  # odd size
    "3x3_s2_even": (2, 3, 5, 3, 2, 1, 1, (8, 8)),
    "3x3_s2_hw": (2, 3, 5, 3, 2, 1, 1, (9, 6)),
    "3x3_s3": (2, 3, 5, 3, 3, 1, 1, (10, 11)),  # one tap per phase
    "3x3_s1_g2_b4": (4, 4, 6, 3, 1, 1, 2, (6, 6)),
    "3x3_s2_g2": (1, 4, 6, 3, 2, 1, 2, (7, 7)),
    "3x3_depthwise_s1_b4": (4, 6, 6, 3, 1, 1, 6, (6, 6)),  # one (1, 9) @ (9, pixels) per channel
    "3x3_depthwise_s2": (1, 6, 6, 3, 2, 1, 6, (7, 7)),
    "3x3_depthwise_s2_b4": (4, 6, 6, 3, 2, 1, 6, (7, 7)),
    "5x5_depthwise_s1": (1, 4, 4, 5, 1, 2, 4, (6, 6)),
    "6x6_stem_s2_p2": (2, 3, 8, 6, 2, 2, 1, (12, 10)),  # four phases, nine taps each
    "7x7_few_out_b1": (1, 16, 2, 7, 1, 3, 1, (8, 8)),  # output side: 2*14*14 < 16*8*8
    "7x7_few_out_b4": (4, 16, 2, 7, 1, 3, 1, (8, 8)),
}


def _output_side(name):
    n, c, cout, k, s, p, groups, (h, w) = CONV_CASES[name]
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    return cout * (h + 2 * p) * (w + 2 * p) < c * ho * wo


class TestConvPaths:
    def _case(self, name, dtype):
        n, c, cout, k, s, p, groups, hw = CONV_CASES[name]
        rng = np.random.default_rng(sorted(CONV_CASES).index(name))
        x = rng.standard_normal((n, c) + hw).astype(dtype)
        # unit-variance outputs, so float32 rounding stays near 1e-7
        w = (rng.standard_normal((cout, c // groups, k, k))
             / np.sqrt(c // groups * k * k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        return x, w, b, dict(stride=s, padding=p, groups=groups)

    @pytest.mark.parametrize("name", sorted(CONV_CASES))
    def test_matches_einsum_oracle_float64(self, name):
        x, w, b, kw = self._case(name, np.float64)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = conv2d(xt, wt, bt, **kw)
        g = np.random.default_rng(99).standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        want, grads = conv2d_einsum(x, w, b, g, **kw)
        assert y.shape == want.shape
        assert np.max(np.abs(y.numpy() - want)) <= 1e-10
        for t, gwant in zip((xt, wt, bt), grads):
            assert t.grad.shape == gwant.shape
            assert np.max(np.abs(t.grad - gwant)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(k for k, v in CONV_CASES.items() if v[0] == 1))
    def test_matches_einsum_oracle_float32_batch1(self, name):
        x, w, b, kw = self._case(name, np.float32)
        with no_grad():
            y = conv2d(Tensor(x), Tensor(w), Tensor(b), **kw).numpy()
        want, _ = conv2d_einsum(x, w, b, np.zeros(y.shape, np.float32), **kw)
        assert y.dtype == np.float32
        assert np.max(np.abs(y - want)) <= 1e-5

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(k for k in CONV_CASES if not _output_side(k)))
    def test_no_grad_row_blocks_match_the_oracle(self, name, rows, monkeypatch):
        x, w, b, kw = self._case(name, np.float64)
        n, c, _, width = x.shape
        k = w.shape[-1]
        wo = (width + 2 * kw["padding"] - k) // kw["stride"] + 1
        # blocks of `rows` output rows, the last one short where they do not divide
        monkeypatch.setattr(tensor_mod, "COLS_BLOCK", rows * n * c * k * k * wo)
        with no_grad():
            y = conv2d(Tensor(x), Tensor(w), Tensor(b), **kw).numpy()
        want, _ = conv2d_einsum(x, w, b, np.zeros(y.shape), **kw)
        assert np.max(np.abs(y - want)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(k for k in CONV_CASES if not _output_side(k)))
    def test_float32_bits_match_matmul_over_oracle_columns(self, name):
        # the contraction order a trained checkpoint depends on: one matmul per
        # image and group over the columns, per-image weight gradients summed in
        # image order, and the column gradients added back tap by tap
        x, w, b, kw = self._case(name, np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = conv2d(xt, wt, bt, **kw)
        g = np.random.default_rng(99).standard_normal(y.shape).astype(np.float32)
        y._backward(g)
        n, groups = x.shape[0], kw["groups"]
        cout, cpg, k = w.shape[:3]
        cols = im2col_oracle(x, k, k, kw["stride"], kw["padding"])
        ho, wo = cols.shape[-2:]
        cols = cols.reshape(n, groups, cpg * k * k, ho * wo)
        wg = w.reshape(groups, cout // groups, cpg * k * k)
        gg = g.reshape(n, groups, cout // groups, ho * wo)
        want = np.matmul(wg, cols).reshape(y.shape)
        want += b.reshape(1, cout, 1, 1)
        gw = np.matmul(gg[0], cols[0].swapaxes(-1, -2))
        for i in range(1, n):
            gw += np.matmul(gg[i], cols[i].swapaxes(-1, -2))
        gcols = np.matmul(wg.swapaxes(-1, -2), gg).reshape(n, x.shape[1], k * k, ho, wo)
        gx = col2im_oracle(gcols, x.shape, k, k, kw["stride"], kw["padding"])
        assert same_bits(y.numpy(), want)
        assert same_bits(wt.grad, gw.reshape(w.shape))
        assert same_bits(xt.grad, gx)

    @pytest.mark.parametrize("images", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(k for k, v in CONV_CASES.items() if v[0] > 1
                                            and not _output_side(k) and (v[3], v[4]) != (1, 1)))
    def test_float32_bits_hold_in_blocks_of_whole_images(self, name, images, monkeypatch):
        # with gradients, im2col runs blocks of `images` whole images, the last
        # one short where they do not divide; the bits are the single matmul's
        n, c, _, k, s, p, _, (h, w) = CONV_CASES[name]
        npix = ((h + 2 * p - k) // s + 1) * ((w + 2 * p - k) // s + 1)
        monkeypatch.setattr(tensor_mod, "COLS_BLOCK", images * c * k * k * npix)
        self.test_float32_bits_match_matmul_over_oracle_columns(name)

    def test_training_stem_never_holds_the_whole_batch_of_columns(self):
        # the toy stem, forward and backward: whole-batch columns are 28.3 MB
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((16, 3, 128, 128)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 3, 6, 6)).astype(np.float32), requires_grad=True)
        g = rng.standard_normal((16, 8, 64, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            y = conv2d(x, w, stride=2, padding=2)
            y._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = y.data.nbytes + x.grad.nbytes + w.grad.nbytes  # input and g predate the trace
        assert peak - held < 16 * 3 * 36 * 64 * 64 * 4 / 4

    @pytest.mark.parametrize("shape, cout, k, s, p", [
        ((4, 16, 32, 32), 16, 3, 1, 1),
        ((4, 3, 128, 128), 8, 6, 2, 2),  # the toy stem
    ])
    def test_forward_keeps_no_columns_for_backward(self, shape, cout, k, s, p):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, shape[1], k, k)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = conv2d(x, w, stride=s, padding=p)
            held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert held < x.data.nbytes / 4


class TestCountFlops:
    def test_matmul_counts_two_per_multiply_accumulate(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        with count_flops() as count:
            a @ b
        assert count.total == 2 * (2 * 3 * 5) * 4

    def test_conv2d_counts_weights_times_output_positions_per_image(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 2, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(8, np.float32))
        with count_flops() as count:
            conv2d(x, w, b, stride=2, padding=1, groups=2)
        assert count.total == 2 * w.size * 3 * 3 * 2

    def test_nothing_else_is_counted(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32), requires_grad=True)
        with count_flops() as count:
            y = upsample_nearest2x(max_pool2d(x * 2.0 + 1.0, 2, 2)).sigmoid().sum()
            y.backward()
        assert count.total == 0

    def test_counts_only_inside_the_block(self, rng):
        a = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        with count_flops() as outer:
            with count_flops() as inner:
                a @ a
            a @ a
        a @ a
        assert (inner.total, outer.total) == (16, 16)
        assert tensor_mod._flops is None
