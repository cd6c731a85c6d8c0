import numpy as np
import pytest

from lightdet.gam import GAM
from lightdet.tensor import Tensor, grad_check

from helpers import cast_f64, counted_flops


class TestGAM:
    def test_zero_input_stays_zero(self, rng):
        gam = GAM(8, rng=rng)
        y = gam(Tensor(np.zeros((2, 8, 5, 5), np.float32))).numpy()
        assert np.array_equal(y, np.zeros_like(y))

    def test_never_amplifies(self, rng):
        gam = GAM(8, rng=rng)
        x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32) * 3
        y = gam(Tensor(x)).numpy()
        assert (np.abs(y) <= np.abs(x) + 1e-7).all()

    def test_gates_live_in_unit_interval(self, rng):
        gam = GAM(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 5, 5)).astype(np.float32) * 4)
        cg = gam.channel_gate(x).numpy()
        sg = gam.spatial_gate(x).numpy()
        for g in (cg, sg):
            assert (g > 0).all() and (g < 1).all()

    def test_channel_gate_varies_per_position(self, rng):
        # no pooling: different positions get different channel gates
        gam = GAM(4, rng=rng)
        x = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
        cg = gam.channel_gate(Tensor(x)).numpy()
        assert not np.allclose(cg[0, :, 0, 0], cg[0, :, 1, 1], atol=1e-5)

    def test_spatial_stage_reads_gated_map(self, rng):
        gam = GAM(4, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        gated = x * gam.channel_gate(x)
        want = (gated * gam.spatial_gate(gated)).numpy()
        assert np.allclose(gam(x).numpy(), want, atol=1e-7)

    def test_reference_param_counts(self, rng):
        assert GAM(16, rng=rng).param_count() == 6444
        assert GAM(64, rng=rng).param_count() == 25740

    def test_hidden_width_rule(self, rng):
        for c, hidden in [(2, 1), (8, 4), (16, 4), (64, 4)]:
            gam = GAM(c, rng=rng)
            assert gam.fc1.weight.shape[1] == gam.sp2.weight.shape[1] == min(4, c // 2) == hidden
        with pytest.raises(ValueError, match="at least 2 channels"):
            GAM(1, rng=rng)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            GAM(8, rng=rng)(Tensor(np.zeros((1, 4, 3, 3), np.float32)))

    def test_gradcheck(self, rng):
        gam = cast_f64(GAM(4, rng=rng))
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))

        def f(t):
            return gam(t).sum()

        err, _ = grad_check(f, [x])
        assert err <= 1e-4

    def test_flops_positive_and_quadratic_free(self, rng):
        gam = GAM(16, rng=rng)
        flops, _ = counted_flops(gam, (1, 16, 10, 10))
        assert flops == 2 * (2 * 100 * 16 * 4 + 2 * 49 * 100 * 16 * 4)
