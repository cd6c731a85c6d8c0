import numpy as np
import pytest

from lightdet import metrics
from lightdet.boxes import corners_np, iou_matrix
from lightdet.metrics import ap_from_points, evaluate

from helpers import match_rows
from oracles import evaluate_per_class, oracle_ap_sweep, sort_detections


def det(cx, cy, w, h, cls=0, conf=0.5):
    return [cx, cy, w, h, conf, cls]


def jittered(box, rng, scale=0.05):
    cx, cy, w, h = box
    dx, dy, dw, dh = rng.normal(0, scale, 4)
    return cx + dx, cy + dy, abs(w + dw) + 1e-3, abs(h + dh) + 1e-3


def random_instance(rng, n_images=3, num_classes=2):
    dets_all, gts_all = [], []
    for _ in range(n_images):
        gts = []
        for _ in range(rng.integers(0, 4)):
            cls = int(rng.integers(0, num_classes))
            gts.append((cls, *rng.uniform(0.3, 0.7, 2), *rng.uniform(0.1, 0.3, 2)))
        dets = []
        for cls, *gb in gts:
            if rng.random() < 0.8:  # mostly-found gts
                dets.append([*jittered(gb, rng), float(rng.random()), cls])
        for _ in range(rng.integers(0, 3)):  # clutter
            cls = int(rng.integers(0, num_classes))
            dets.append([*rng.uniform(0.1, 0.9, 2), *rng.uniform(0.05, 0.2, 2),
                         float(rng.random()), cls])
        dets_all.append(dets)
        gts_all.append(gts)
    return dets_all, gts_all


class TestRows:
    def test_row_columns_are_box_confidence_class(self):
        # a detection row is (cx, cy, w, h, confidence, class) and a gt row
        # (class, cx, cy, w, h): the hit ranks below the miss on confidence, so
        # class 1 scores AP 0.5; any other column order reads no class-1 hit
        gts = [[(1, 0.3, 0.3, 0.2, 0.2)]]
        hit = [0.3, 0.3, 0.2, 0.2, 0.25, 1]
        miss = [0.7, 0.7, 0.2, 0.2, 0.75, 1]
        assert evaluate([[hit, miss]], gts, 2).ap_per_class == {1: 0.5}
        assert evaluate([[hit]], gts, 2).ap_per_class == {1: 1.0}
        assert match_rows([hit, miss], gts[0]) == [True, False]


class TestMatching:
    def test_each_gt_matched_once(self):
        gts = [(0, 0.5, 0.5, 0.2, 0.2)]
        dets = [det(0.5, 0.5, 0.2, 0.2, conf=0.9), det(0.51, 0.5, 0.2, 0.2, conf=0.8)]
        assert match_rows(dets, gts) == [True, False]

    def test_class_isolation(self):
        gts = [(0, 0.5, 0.5, 0.2, 0.2)]
        dets = [det(0.5, 0.5, 0.2, 0.2, cls=1, conf=0.9)]
        assert match_rows(dets, gts) == [False]

    def test_best_iou_wins_ties_by_gt_index(self):
        g = (0, 0.5, 0.5, 0.2, 0.2)
        gts = [g, g]  # identical gts: equal IoU, index 0 must win
        dets = [det(0.5, 0.5, 0.2, 0.2, conf=0.9)]
        flags = match_rows(dets, gts)
        assert flags == [True]
        # two different gts at exactly equal IoU 0.6: taking gt 0 leaves det 1 unmatched
        gts = [(0, 0.4375, 0.5, 0.25, 0.25), (0, 0.5625, 0.5, 0.25, 0.25)]
        dets = [det(0.5, 0.5, 0.25, 0.25, conf=0.9), det(0.4375, 0.5, 0.25, 0.25, conf=0.8)]
        assert match_rows(dets, gts) == [True, False]

    def test_threshold_respected(self):
        gts = [(0, 0.5, 0.5, 0.2, 0.2)]
        dets = [det(0.9, 0.9, 0.2, 0.2, conf=0.9)]  # IoU ~ 0
        assert match_rows(dets, gts) == [False]

    @pytest.mark.parametrize("thr", [0.0, 0.3, 0.5])
    def test_matches_per_pair_greedy_loop(self, rng, monkeypatch, thr):
        monkeypatch.setattr(metrics, "MATCH_IOU", thr)

        def loop_oracle(dets, gts):  # the greedy rule, one (det, gt) pair at a time
            ious = iou_matrix(corners_np(np.array([d[:4] for d in dets])),
                              corners_np(np.array([g[1:] for g in gts])))
            taken, flags = [False] * len(gts), []
            for i, d in enumerate(dets):
                best_j, best_iou = -1, 0.0
                for j, g in enumerate(gts):
                    if not taken[j] and g[0] == d[5] and ious[i, j] >= thr \
                            and ious[i, j] > best_iou:
                        best_j, best_iou = j, ious[i, j]
                if best_j >= 0:
                    taken[best_j] = True
                flags.append(best_j >= 0)
            return flags

        checked = 0
        for _ in range(100):
            dets_all, gts_all = random_instance(rng, n_images=1)
            dets, gts = sort_detections(dets_all[0]), gts_all[0] * int(rng.integers(1, 3))
            dets = dets + dets[:int(rng.integers(0, 3))]  # repeated boxes: equal IoUs
            if dets and gts:
                assert match_rows(dets, gts) == loop_oracle(dets, gts)
                checked += 1
        assert checked >= 50

    def test_sort_is_stable_on_equal_conf(self):
        # equal confidences rank in index order: the miss first gives AP 0.5,
        # the hit first would give 1.0
        gts = [[(0, 0.2, 0.2, 0.1, 0.1)]]
        miss, hit = det(0.8, 0.8, 0.1, 0.1, conf=0.5), det(0.2, 0.2, 0.1, 0.1, conf=0.5)
        assert evaluate([[miss, hit]], gts, 1).ap_per_class == {0: 0.5}
        assert evaluate([[hit, miss]], gts, 1).ap_per_class == {0: 1.0}


def class_ap(dets_all, gts_all, cls):
    """AP of one class as `evaluate` reports it over two classes."""
    return evaluate(dets_all, gts_all, 2).ap_per_class[cls]


class TestAP:
    def test_worked_example(self):
        # two gts; detections: hit at .9, miss at .8, hit at .7 -> AP 0.8333
        gts = [[(0, 0.3, 0.3, 0.2, 0.2), (0, 0.7, 0.7, 0.2, 0.2)]]
        dets = [[
            det(0.3, 0.3, 0.2, 0.2, conf=0.9),
            det(0.5, 0.1, 0.05, 0.05, conf=0.8),
            det(0.7, 0.7, 0.2, 0.2, conf=0.7),
        ]]
        assert class_ap(dets, gts, 0) == pytest.approx(0.833333, abs=1e-4)

    def test_perfect_detections_give_ap_one(self):
        gts = [[(0, 0.3, 0.3, 0.2, 0.2), (0, 0.7, 0.7, 0.2, 0.2)]]
        dets = [[det(0.3, 0.3, 0.2, 0.2, conf=0.9), det(0.7, 0.7, 0.2, 0.2, conf=0.8)]]
        assert class_ap(dets, gts, 0) == pytest.approx(1.0, abs=1e-9)

    def test_no_dets_on_present_class_is_zero(self):
        gts = [[(0, 0.5, 0.5, 0.2, 0.2)]]
        assert class_ap([[]], gts, 0) == 0.0

    def test_absent_class_is_skipped(self):
        gts = [[(0, 0.5, 0.5, 0.2, 0.2)]]
        rep = evaluate([[det(0.5, 0.5, 0.2, 0.2, cls=1)]], gts, 2)
        assert list(rep.ap_per_class) == [0] and rep.per_class_counts == {0: 1, 1: 0}

    def test_confidence_rescaling_invariance(self, rng):
        dets_all, gts_all = random_instance(rng)
        scaled = [[[*d[:4], d[4] * 3.0, d[5]] for d in dets] for dets in dets_all]
        base = evaluate(dets_all, gts_all, 2).ap_per_class
        got = evaluate(scaled, gts_all, 2).ap_per_class
        assert got.keys() == base.keys()
        for cls in base:
            assert got[cls] == pytest.approx(base[cls], abs=1e-12)

    def test_envelope_integration_hand_case(self):
        rec = np.array([0.5, 0.5, 1.0])
        pre = np.array([1.0, 0.5, 2 / 3])
        assert ap_from_points(rec, pre) == pytest.approx(5 / 6, abs=1e-9)

    def test_matches_bruteforce_sweep_on_random_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(50):
            dets_all, gts_all = random_instance(rng)
            wants = [oracle_ap_sweep(dets_all, gts_all, cls) for cls in (0, 1)]
            if wants == [None, None]:  # no gt at all: nothing to score
                with pytest.raises(ValueError):
                    evaluate(dets_all, gts_all, 2)
                continue
            aps = evaluate(dets_all, gts_all, 2).ap_per_class
            for cls, want in enumerate(wants):
                if want is None:
                    assert cls not in aps
                else:
                    assert aps[cls] == pytest.approx(want, abs=1e-12)
                    checked += 1
        assert checked >= 40  # the sweep must actually exercise real instances


class TestEvaluate:
    def test_requires_some_ground_truth(self):
        with pytest.raises(ValueError):
            evaluate([[]], [[]], num_classes=2)

    def test_detections_for_more_images_than_ground_truth_raise(self):
        # scored as one image, the second image's miss would be dropped: map50 1.0
        dets = [[det(0.5, 0.5, 0.2, 0.2, conf=0.9)], [det(0.1, 0.1, 0.1, 0.1, conf=0.8)]]
        with pytest.raises(ValueError, match="shorter"):
            evaluate(dets, [[(0, 0.5, 0.5, 0.2, 0.2)]], num_classes=1)

    def test_ground_truth_for_more_images_than_detections_raise(self):
        # scored as two images, the second image's gt would count as missed: map50 0.5
        gts = [[(0, 0.5, 0.5, 0.2, 0.2)], [(0, 0.5, 0.5, 0.2, 0.2)]]
        with pytest.raises(ValueError, match="longer"):
            evaluate([[det(0.5, 0.5, 0.2, 0.2, conf=0.9)]], gts, num_classes=1)

    def test_report_fields(self, rng):
        dets_all, gts_all = random_instance(rng, n_images=5)
        rep = evaluate(dets_all, gts_all, num_classes=2)
        assert 0.0 <= rep.map50 <= 1.0
        assert 0.0 <= rep.precision <= 1.0
        assert 0.0 <= rep.recall <= 1.0
        for cls, ap in rep.ap_per_class.items():
            assert 0.0 <= ap <= 1.0
            assert rep.per_class_counts[cls] > 0

    def test_map_is_mean_over_scored_classes(self):
        gts = [[(0, 0.3, 0.3, 0.2, 0.2), (1, 0.7, 0.7, 0.2, 0.2)]]
        dets = [[det(0.3, 0.3, 0.2, 0.2, cls=0, conf=0.9)]]  # class 1 missed entirely
        rep = evaluate(dets, gts, num_classes=2)
        assert rep.map50 == pytest.approx((1.0 + 0.0) / 2, abs=1e-9)

    def test_skipped_class_excluded_from_mean(self):
        gts = [[(0, 0.3, 0.3, 0.2, 0.2)]]
        dets = [[det(0.3, 0.3, 0.2, 0.2, cls=0, conf=0.9)]]
        rep = evaluate(dets, gts, num_classes=2)
        assert list(rep.ap_per_class) == [0]
        assert rep.map50 == pytest.approx(1.0, abs=1e-9)

    def test_equals_per_class_reference(self):
        # half the instances quantize confidences to quarters, so that equal
        # confidences meet across classes and images and the tie order shows
        rng = np.random.default_rng(11)
        compared = tied = 0
        for _ in range(300):
            num_classes = int(rng.integers(1, 5))
            dets_all, gts_all = random_instance(rng, int(rng.integers(1, 6)), num_classes)
            if rng.random() < 0.5:
                dets_all = [[[*d[:4], float(np.ceil(d[4] * 4) / 4), d[5]] for d in dets]
                            for dets in dets_all]
            if not any(gts_all):
                with pytest.raises(ValueError):
                    evaluate(dets_all, gts_all, num_classes)
                continue
            assert evaluate(dets_all, gts_all, num_classes) \
                == evaluate_per_class(dets_all, gts_all, num_classes)
            compared += 1
            confs = [d[4] for dets in dets_all for d in dets]
            tied += len(set(confs)) < len(confs)
        assert compared >= 200 and tied >= 100
