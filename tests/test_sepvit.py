import numpy as np
import pytest

from lightdet.sepvit import SepViTBlock, pick_window_size, window_merge, window_partition
from lightdet.tensor import Tensor, grad_check

from helpers import cast_f64, counted_flops, softmax_outputs


class TestWindows:
    def test_partition_merge_roundtrip_bit_exact(self, rng):
        x = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
        toks = window_partition(Tensor(x), 3)
        back = window_merge(toks, 3, 12, 12).numpy()
        assert np.array_equal(back, x)

    def test_window_and_pixel_order(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        toks = window_partition(x, 2).numpy()[0, :, :, 0]
        assert toks.tolist() == [
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15],
        ]

    def test_bad_window_size_raises(self, rng):
        with pytest.raises(ValueError):
            window_partition(Tensor(rng.standard_normal((1, 2, 5, 5))), 2)

    def test_partition_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))

        def f(t):
            return window_merge(window_partition(t, 2).tanh(), 2, 4, 4).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    @pytest.mark.parametrize("hw,want", [
        ((14, 14), 7), ((20, 20), 5), ((12, 12), 6), ((3, 3), 3),
        ((5, 7), 1), ((8, 8), 4), ((28, 14), 7),
    ])
    def test_pick_window_size(self, hw, want):
        assert pick_window_size(*hw) == want


class TestBlock:
    def test_shape_preserved_reference_case(self, rng):
        block = SepViTBlock(256, rng=rng)
        x = Tensor(rng.standard_normal((1, 256, 14, 14)).astype(np.float32))
        y = block(x)
        assert y.shape == (1, 256, 14, 14)
        assert np.isfinite(y.numpy()).all()

    def test_attention_rows_sum_to_one(self, rng, monkeypatch):
        block = SepViTBlock(16, rng=rng)
        f = window_partition(Tensor(rng.standard_normal((2, 16, 6, 6)).astype(np.float32)), 3)
        attn = softmax_outputs(monkeypatch)
        fpix, wt = block.window_attention(f)
        block.cross_window_attention(fpix, wt)
        assert [a.shape for a in attn] == [(2, 4, 10, 10), (2, 4, 4)]
        for a in attn:
            assert np.allclose(a.numpy().sum(axis=-1), 1.0, atol=1e-6)

    def test_single_window_cross_stage_is_identity(self, rng):
        block = SepViTBlock(8, rng=rng)
        f = window_partition(Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32)), 3)
        fpix, wt = block.window_attention(f)
        out = block.cross_window_attention(fpix, wt)
        assert np.array_equal(out.numpy(), fpix.numpy())

    def test_identical_tokens_average_the_windows(self, rng):
        block = SepViTBlock(8, rng=rng)
        fpix = Tensor(rng.standard_normal((1, 2, 4, 8)).astype(np.float32))
        one = rng.standard_normal((1, 1, 1, 8)).astype(np.float32)
        wt = Tensor(np.concatenate([one, one], axis=1))
        out = block.cross_window_attention(fpix, wt).numpy()
        avg = fpix.numpy().mean(axis=1, keepdims=True)
        assert np.allclose(out, np.repeat(avg, 2, axis=1), atol=1e-6)

    def test_window_attention_is_local(self, rng):
        block = SepViTBlock(8, rng=rng)
        base = rng.standard_normal((1, 4, 4, 8)).astype(np.float32)
        poked = base.copy()
        poked[0, 2] += rng.standard_normal((4, 8)).astype(np.float32)  # only window 2
        out_a, _ = block.window_attention(Tensor(base))
        out_b, _ = block.window_attention(Tensor(poked))
        a, b = out_a.numpy(), out_b.numpy()
        assert np.array_equal(a[0, [0, 1, 3]], b[0, [0, 1, 3]])
        assert not np.allclose(a[0, 2], b[0, 2])

    def test_window_permutation_equivariance(self, rng):
        block = SepViTBlock(8, rng=rng)
        f = rng.standard_normal((1, 4, 4, 8)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        out, _ = block.window_attention(Tensor(f))
        out_p, _ = block.window_attention(Tensor(f[:, perm]))
        assert np.array_equal(out.numpy()[:, perm], out_p.numpy())

    def test_window_token_starts_at_zero(self, rng):
        block = SepViTBlock(8, rng=rng)
        assert np.array_equal(block.window_token.numpy(), np.zeros((1, 1, 1, 8), np.float32))

    def test_wrong_channel_count_raises(self, rng):
        block = SepViTBlock(8, rng=rng)
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((1, 4, 4, 4), np.float32)))

    def test_param_count_closed_form(self, rng):
        d = 128
        block = SepViTBlock(d, rng=rng)
        assert block.param_count() == 11 * d * d + 10 * d == 181504

    def test_block_gradcheck(self, rng):
        block = cast_f64(SepViTBlock(8, rng=rng))
        x = Tensor(rng.standard_normal((1, 8, 4, 6)))  # six 2x2 windows

        def f(t):
            return block(t).tanh().mean()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_window_token_gets_gradient(self, rng):
        block = SepViTBlock(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
        block(x).sum().backward()
        assert block.window_token.grad is not None
        assert np.abs(block.window_token.grad).sum() > 0

    def test_flops_scales_with_area(self, rng):
        block = SepViTBlock(16, rng=rng)
        small, _ = counted_flops(block, (1, 16, 8, 8))
        large, _ = counted_flops(block, (1, 16, 16, 16))
        assert small > 0
        assert large > 3 * small
