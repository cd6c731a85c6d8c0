import weakref

import numpy as np
import pytest

from lightdet import train
from lightdet.data import synth_scene
from lightdet.model import Light, training_loss
from lightdet.tensor import Tensor
from lightdet.train import (
    CLIP_NORM, FINAL_FRAC, SGD, WEIGHT_DECAY, evaluate_model, fit, targets_to_gt,
)


def _toy_model(img=32, seed=3):
    return Light(nc=2, width=0.125, act="mish", img_size=img,
                 rng=np.random.default_rng(seed))


def _fit(model, images, targets, iters, **kw):
    """`fit`, with the values its run settings once defaulted to for any a test leaves out."""
    run = dict(batch=8, lr=0.01, momentum=0.937, box_kind="siou", seed=0, cosine=False)
    return fit(model, images, targets, iters=iters, **{**run, **kw})


def _toy_batch(n, img=32, seed=11):
    imgs, targets = [], []
    for i in range(n):
        scene, labels = synth_scene(np.random.default_rng([seed, i]), img)
        imgs.append(scene.transpose(2, 0, 1).astype(np.float32) / 255.0)
        targets.append(labels)
    return np.stack(imgs), targets


@pytest.fixture
def no_warmup(monkeypatch):
    monkeypatch.setattr(train, "WARMUP", 0)


class TestSgd:
    def test_warmup_ramps_then_holds(self, monkeypatch):
        monkeypatch.setattr(train, "WARMUP", 4)
        opt = SGD([], lr=0.1, momentum=0.937, total_steps=None)
        assert opt.lr_at(0) == pytest.approx(0.025)
        assert opt.lr_at(3) == pytest.approx(0.1)
        assert opt.lr_at(50) == pytest.approx(0.1)

    def test_cosine_decay(self, monkeypatch):
        monkeypatch.setattr(train, "WARMUP", 2)
        opt = SGD([], lr=0.1, momentum=0.937, total_steps=12)
        lo = 0.1 * FINAL_FRAC
        assert opt.lr_at(2) == pytest.approx(0.1)
        assert opt.lr_at(7) == pytest.approx((0.1 + lo) / 2)  # half way down the cosine
        assert opt.lr_at(12) == pytest.approx(lo)
        assert opt.lr_at(99) == pytest.approx(lo)

    def test_weight_decay_skips_vectors(self, no_warmup):
        vec = Tensor(np.ones(4, np.float32), requires_grad=True)
        mat = Tensor(np.ones((4, 4), np.float32), requires_grad=True)
        vec.grad = np.zeros(4, np.float32)
        mat.grad = np.zeros((4, 4), np.float32)
        opt = SGD([vec, mat], lr=1.0, momentum=0.0, total_steps=None)
        opt.step()
        assert np.array_equal(vec.data, np.ones(4, np.float32))
        assert np.allclose(mat.data, 1.0 - WEIGHT_DECAY, rtol=0, atol=1e-6)

    def test_momentum_accumulates(self, no_warmup):
        p = Tensor(np.zeros(1, np.float32), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.5, total_steps=None)  # a vector: no decay
        p.grad = np.ones(1, np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(-0.1)
        p.grad = np.ones(1, np.float32)
        opt.step()  # v = 0.5*1 + 1 = 1.5
        assert p.data[0] == pytest.approx(-0.25)

    def test_none_grads_skipped(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.937, total_steps=None)
        opt.step()
        assert np.array_equal(p.data, np.ones(2, np.float32))

    def test_clip_rescales_large_gradients(self, no_warmup):
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        p.grad = np.full(4, 50.0, np.float32)  # norm 100
        assert CLIP_NORM < 100.0
        opt = SGD([p], lr=1.0, momentum=0.0, total_steps=None)
        opt.step()
        assert np.allclose(p.data, -50.0 * CLIP_NORM / 100.0, atol=1e-6)

    def test_non_finite_gradient_norm_raises_before_update(self):
        p = Tensor(np.zeros(2, np.float32), requires_grad=True)
        p.grad = np.array([1.0, np.inf], np.float32)
        opt = SGD([p], lr=0.1, momentum=0.937, total_steps=None)
        with pytest.raises(FloatingPointError, match="step 0: gradient norm is inf"):
            opt.step()
        assert np.array_equal(p.data, np.zeros(2, np.float32)) and opt.t == 0

    def test_clip_leaves_small_gradients_alone(self, no_warmup):
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        p.grad = np.full(4, 0.5, np.float32)  # norm 1
        assert CLIP_NORM > 1.0
        opt = SGD([p], lr=1.0, momentum=0.0, total_steps=None)
        opt.step()
        assert np.allclose(p.data, -0.5, atol=1e-7)


class TestFit:
    def test_one_step_reaches_nearly_all_params(self):
        # stride-32 maps must be at least 2x2: a 1x1 map normalizes to exactly
        # zero under single-element batch statistics and starves that branch
        model = _toy_model(img=64)
        imgs, targets = _toy_batch(1, img=64)
        _fit(model, imgs, targets, iters=1, batch=1)
        params = [p for p in model.parameters() if p.requires_grad]
        touched = sum(1 for p in params
                      if p.grad is not None and np.abs(p.grad).sum() > 0)
        assert touched / len(params) >= 0.99

    def test_loss_improves_on_fixed_batch(self):
        model = _toy_model()
        imgs, targets = _toy_batch(4)
        trace = _fit(model, imgs, targets, iters=50, batch=4, lr=0.005, seed=0)
        assert trace[49]["total"] < trace[0]["total"]

    def test_monotonic_descent_overfitting_one_image(self, no_warmup):
        # needs 128px input: below that the deepest pooling windows cover the
        # whole stride-32 map, and the resulting near-constant channels make
        # batch-1 normalization curvature too sharp for any usable step size
        img = 128
        model = _toy_model(img=img)
        scene, labels = synth_scene(np.random.default_rng([11, 0]), img)
        imgs = scene.transpose(2, 0, 1).astype(np.float32)[None] / 255.0
        trace = _fit(model, imgs, [labels], iters=50, batch=1, lr=3e-5,
                     momentum=0.0, seed=0)
        totals = [r["total"] for r in trace]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0] - 0.2

    def test_seed_determinism(self):
        imgs, targets = _toy_batch(4)
        t1 = _fit(_toy_model(), imgs, targets, iters=5, batch=2, seed=7)
        t2 = _fit(_toy_model(), imgs, targets, iters=5, batch=2, seed=7)
        assert [r["total"] for r in t1] == [r["total"] for r in t2]

    def test_box_kind_changes_only_box_component(self):
        imgs, targets = _toy_batch(2)
        m1, m2 = _toy_model(), _toy_model()
        m1.train(), m2.train()
        p1 = m1(Tensor(imgs))
        p2 = m2(Tensor(imgs))
        _, a = training_loss(p1, targets, m1.detect, box_kind="ciou")
        _, b = training_loss(p2, targets, m2.detect, box_kind="siou")
        assert a["obj"] == b["obj"] and a["cls"] == b["cls"]
        assert a["box"] != b["box"]

    def test_on_epoch_fires_each_pass(self):
        model = _toy_model()
        imgs, targets = _toy_batch(4)
        seen = []
        _fit(model, imgs, targets, iters=4, batch=2,
             on_epoch=lambda e, parts: seen.append((e, parts)))
        assert [e for e, _ in seen] == [0, 1]
        assert all(set(p) == {"box", "obj", "cls", "total"} for _, p in seen)

    def test_augment_smoke_deterministic(self):
        imgs, targets = _toy_batch(4)
        t1 = _fit(_toy_model(), imgs, targets, iters=3, batch=2, seed=1, augment=True)
        t2 = _fit(_toy_model(), imgs, targets, iters=3, batch=2, seed=1, augment=True)
        assert [r["total"] for r in t1] == [r["total"] for r in t2]

    def test_previous_step_graph_freed_before_next_forward(self, monkeypatch):
        # each step's loss takes in a fresh leaf that nothing but its graph holds
        class Probe(Tensor):  # a subclass gains the weakref slot Tensor lacks
            pass

        probes = []

        def loss_with_probe(*args, **kwargs):
            total, parts = training_loss(*args, **kwargs)
            probe = Probe(np.zeros((), np.float32), requires_grad=True)
            probes.append(weakref.ref(probe))
            return total + probe, parts

        monkeypatch.setattr("lightdet.train.training_loss", loss_with_probe)
        model = _toy_model()
        forward, live = model.forward, []

        def counting_forward(x):
            live.append(sum(ref() is not None for ref in probes))
            return forward(x)

        model.forward = counting_forward
        imgs, targets = _toy_batch(4)
        _fit(model, imgs, targets, iters=3, batch=2)
        assert len(probes) == 3
        assert live == [0, 0, 0]

    def test_non_finite_loss_stops_at_its_step(self, monkeypatch):
        model = _toy_model()
        calls, before = [], []

        def nan_at_step_2(*args, **kwargs):
            total, parts = training_loss(*args, **kwargs)
            calls.append(parts)
            if len(calls) == 3:
                before.extend(p.data.copy() for p in model.parameters())
                parts = dict(parts, obj=float("nan"), total=float("nan"))
            return total, parts

        monkeypatch.setattr("lightdet.train.training_loss", nan_at_step_2)
        imgs, targets = _toy_batch(4)
        with pytest.raises(FloatingPointError,
                           match=r"step 2: loss is not finite \(box \S+, obj nan, cls "):
            _fit(model, imgs, targets, iters=5, batch=2)
        assert len(calls) == 3
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    def test_diverging_run_stops_before_parameters_go_nan(self):
        # lr 1e6 overflows within a few steps; the run must stop before an
        # update writes NaN into the weights
        imgs, targets = _toy_batch(24)
        model = _toy_model()
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=r"^step \d+: "):
            _fit(model, imgs, targets, iters=12, batch=8, lr=1e6)
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _fit(_toy_model(), np.zeros((0, 3, 32, 32), np.float32), [], iters=1)


class TestEvalGlue:
    def test_targets_to_gt_pixels(self):
        gts = targets_to_gt([np.array([[1, 0.5, 0.25, 0.2, 0.1]])], 64, 64)
        assert gts[0].dtype == np.float64
        assert gts[0].tolist() == [[1.0, 32.0, 16.0, 12.8, 6.4]]

    def test_untrained_model_scores_poorly(self):
        model = _toy_model()
        imgs, targets = _toy_batch(4)
        rep = evaluate_model(model, imgs, targets)
        assert 0.0 <= rep.map50 < 0.2

    def test_labels_scale_to_the_images_size(self, monkeypatch):
        # a model built at 32 px scores 64 px images in their own frame
        imgs, targets = _toy_batch(2, img=64)
        gts = targets_to_gt(targets, 64, 64)
        monkeypatch.setattr(train, "detect_images", lambda model, images, conf_thr: [
            [[*g[1:], 1.0, g[0]] for g in img] for img in gts])
        assert evaluate_model(_toy_model(img=32), imgs, targets).map50 == 1.0

    def test_labels_scale_by_height_and_width(self, monkeypatch):
        # a 64 px high, 128 px wide image: x and widths scale by 128, y and heights by 64
        imgs = np.zeros((1, 3, 64, 128), np.float32)
        targets = [np.array([[0, 0.5, 0.5, 0.25, 0.25]])]
        monkeypatch.setattr(train, "detect_images", lambda model, images, conf_thr: [
            [[64.0, 32.0, 32.0, 16.0, 1.0, 0.0]]])
        assert evaluate_model(_toy_model(), imgs, targets).map50 == 1.0
