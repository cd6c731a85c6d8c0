import numpy as np
import pytest

from lightdet.data import (
    PAD_GRAY,
    _background,
    ensure_split,
    hflip,
    labels_to_canvas,
    letterbox,
    load_split,
    parse_labels,
    read_ppm,
    read_split,
    resize_nearest,
    split_dataset,
    synth_generate,
    synth_scene,
    write_labels,
    write_ppm,
    write_split,
)
from lightdet.errors import ValidationError

import oracles
from oracles import labels_from_canvas, load_sample


class TestPpm:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(13, 9, 3), dtype=np.uint8)
        p = str(tmp_path / "a.ppm")
        write_ppm(p, img)
        assert np.array_equal(read_ppm(p), img)

    @staticmethod
    def _load(tmp_path, img):
        # load_sample reads <root>/images/<stem>.ppm; a missing label file is a negative
        (tmp_path / "images").mkdir()
        write_ppm(str(tmp_path / "images" / "a.ppm"), img)
        # at the longer side: a wide image keeps its pixels in the canvas's top rows
        t, labels = load_sample(str(tmp_path), "a", nc=2, img_size=max(img.shape[:2]))
        assert labels.shape == (0, 5)
        return t

    def test_white_pixel_decodes_to_ones(self, tmp_path):
        t = self._load(tmp_path, np.full((1, 1, 3), 255, np.uint8))
        assert t.shape == (3, 1, 1) and t.dtype == np.float32
        assert np.allclose(t, 1.0)

    def test_channel_major_layout(self, tmp_path):
        img = np.zeros((1, 2, 3), np.uint8)
        img[0, 0] = (255, 0, 0)
        img[0, 1] = (0, 0, 255)
        t = self._load(tmp_path, img)
        assert t[0, 0, 0] == 1.0 and t[2, 0, 1] == 1.0
        assert t[0, 0, 1] == 0.0 and t[2, 0, 0] == 0.0

    def test_header_comments_tolerated(self, tmp_path):
        p = str(tmp_path / "c.ppm")
        with open(p, "wb") as fh:
            fh.write(b"P6\n# a comment\n2 1\n# more\n255\n" + bytes(6))
        assert read_ppm(p).shape == (1, 2, 3)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "x.ppm")
        open(p, "wb").write(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValidationError, match="magic"):
            read_ppm(p)

    def test_truncated_payload(self, tmp_path):
        p = str(tmp_path / "x.ppm")
        open(p, "wb").write(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ValidationError, match="truncated"):
            read_ppm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = str(tmp_path / "x.ppm")
        open(p, "wb").write(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValidationError, match="maxval"):
            read_ppm(p)

    def test_error_messages_distinct(self, tmp_path):
        cases = [b"P5\n1 1\n255\n" + bytes(3),
                 b"P6\n1 1\n255\n" + bytes(1),
                 b"P6\n1 1\n63\n" + bytes(3)]
        msgs = set()
        for i, blob in enumerate(cases):
            p = str(tmp_path / f"f{i}.ppm")
            open(p, "wb").write(blob)
            with pytest.raises(ValidationError) as e:
                read_ppm(p)
            msgs.add(str(e.value).split(":", 1)[1])
        assert len(msgs) == 3


class TestLabels:
    def test_roundtrip(self, tmp_path):
        rows = np.array([[0, 0.5, 0.5, 0.2, 0.2], [1, 0.25, 0.75, 0.1, 0.3]])
        p = str(tmp_path / "l.txt")
        write_labels(p, rows)
        got = parse_labels(p, nc=2)
        assert got.shape == (2, 5)
        assert np.allclose(got, rows, atol=1e-6)

    def test_blank_lines_ok(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("\n0 0.5 0.5 0.2 0.2\n\n\n")
        assert parse_labels(p, nc=2).shape == (1, 5)

    def test_empty_file_is_negative_image(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("")
        assert parse_labels(p, nc=2).shape == (0, 5)

    def test_range_error_carries_line_number(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("0 0.5 0.5 0.2 0.2\n1 0.5 0.5 1.5 0.2\n")
        with pytest.raises(ValidationError, match=":2:"):
            parse_labels(p, nc=2)

    def test_non_numeric(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("0 0.5 x 0.2 0.2\n")
        with pytest.raises(ValidationError, match="non-numeric"):
            parse_labels(p, nc=2)

    def test_class_out_of_range(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("3 0.5 0.5 0.2 0.2\n")
        with pytest.raises(ValidationError, match="class 3"):
            parse_labels(p, nc=2)

    def test_wrong_field_count(self, tmp_path):
        p = str(tmp_path / "l.txt")
        open(p, "w").write("0 0.5 0.5 0.2\n")
        with pytest.raises(ValidationError, match="5 fields"):
            parse_labels(p, nc=2)


class TestSplit:
    def test_20_goes_16_2_2(self):
        pairs = split_dataset([f"s{i}" for i in range(20)], seed=3)
        tags = [t for _, t in pairs]
        assert (tags.count("train"), tags.count("val"), tags.count("test")) == (16, 2, 2)

    def test_partition_and_determinism(self):
        stems = [f"s{i}" for i in range(37)]
        a = split_dataset(stems, seed=5)
        b = split_dataset(stems, seed=5)
        assert a == b
        assert sorted(s for s, _ in a) == sorted(stems)
        counts = [sum(1 for _, t in a if t == tag) for tag in ("train", "val", "test")]
        assert counts[0] == 29 and counts[1] == 3 and counts[2] == 5

    def test_different_seed_differs(self):
        stems = [f"s{i}" for i in range(30)]
        assert split_dataset(stems, 1) != split_dataset(stems, 2)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError, match="at least 10"):
            split_dataset(["a"] * 9, 0)

    def test_manifest_roundtrip(self, tmp_path):
        root = str(tmp_path)
        pairs = split_dataset([f"s{i}" for i in range(12)], seed=1)
        write_split(root, 1, pairs)
        assert read_split(root, 1) == pairs

    def test_ensure_split_creates_then_reuses(self, tmp_path):
        root = str(tmp_path)
        synth_generate(12, 0, root, size=16)
        first = ensure_split(root, 4)
        again = ensure_split(root, 4)
        assert first == again


class TestLetterbox:
    def test_square_is_pure_resize(self, rng):
        img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        out, rec = letterbox(img, 64)
        assert out.shape == (64, 64, 3)
        assert rec["pad_x"] == 0 and rec["pad_y"] == 0

    def test_same_size_identity(self, rng):
        img = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
        out, rec = letterbox(img, 48)
        assert np.array_equal(out, img)

    def test_2to1_pads_quarter_top_bottom(self):
        img = np.zeros((32, 64, 3), np.uint8)
        out, rec = letterbox(img, 64)
        assert rec["pad_y"] == 16 and rec["pad_x"] == 0
        assert np.all(out[:16] == PAD_GRAY) and np.all(out[-16:] == PAD_GRAY)
        assert np.all(out[16:48] == 0)

    def test_label_roundtrip_exact(self, rng):
        img = np.zeros((30, 50, 3), np.uint8)
        _, rec = letterbox(img, 64)
        labels = np.column_stack([
            rng.integers(0, 2, 8),
            rng.uniform(0.2, 0.8, 8), rng.uniform(0.2, 0.8, 8),
            rng.uniform(0.05, 0.3, 8), rng.uniform(0.05, 0.3, 8)])
        back = labels_from_canvas(labels_to_canvas(labels, rec), rec)
        assert np.allclose(back, labels, atol=1e-6)

    def test_canvas_labels_sit_over_content(self):
        img = np.zeros((32, 64, 3), np.uint8)
        _, rec = letterbox(img, 64)
        lab = labels_to_canvas(np.array([[0, 0.5, 0.5, 1.0, 1.0]]), rec)
        # content occupies the middle half vertically
        assert abs(lab[0, 2] - 0.5) < 1e-9
        assert abs(lab[0, 4] - 0.5) < 1e-9
        assert abs(lab[0, 3] - 1.0) < 1e-9

    def test_resize_nearest_identity(self, rng):
        img = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
        assert np.array_equal(resize_nearest(img, 9, 7), img)


class TestHflip:
    def test_involution(self, rng):
        img = rng.standard_normal((3, 8, 8)).astype(np.float32)
        lab = np.array([[0, 0.3, 0.4, 0.2, 0.1]])
        img2, lab2 = hflip(*hflip(img, lab))
        assert np.array_equal(img2, img)
        assert np.allclose(lab2, lab)

    def test_mirrors_x_only(self, rng):
        img = rng.standard_normal((3, 4, 4)).astype(np.float32)
        lab = np.array([[1, 0.25, 0.4, 0.2, 0.1]])
        img2, lab2 = hflip(img, lab)
        assert np.array_equal(img2, img[..., ::-1])
        assert np.isclose(lab2[0, 1], 0.75)
        assert np.allclose(lab2[0, [0, 2, 3, 4]], lab[0, [0, 2, 3, 4]])


class TestSynth:
    def test_counts_and_ranges(self, tmp_path):
        root = str(tmp_path)
        stems = synth_generate(10, 1, root, size=48)
        assert len(stems) == 10
        for stem in stems:
            img = read_ppm(f"{root}/images/{stem}.ppm")
            assert img.shape == (48, 48, 3)
            labels = parse_labels(f"{root}/labels/{stem}.txt", nc=2)
            assert len(labels) >= 1
            for _, cx, cy, w, h in labels:
                assert 0 < w <= 1 and 0 < h <= 1
                assert 0 <= cx - w / 2 and cx + w / 2 <= 1 + 1e-9
                assert 0 <= cy - h / 2 and cy + h / 2 <= 1 + 1e-9

    def test_same_seed_byte_identical(self, tmp_path):
        ra, rb = str(tmp_path / "a"), str(tmp_path / "b")
        synth_generate(4, 9, ra, size=32)
        synth_generate(4, 9, rb, size=32)
        for i in range(4):
            stem = f"synth_{i:05d}"
            for sub, ext in (("images", ".ppm"), ("labels", ".txt")):
                ba = open(f"{ra}/{sub}/{stem}{ext}", "rb").read()
                bb = open(f"{rb}/{sub}/{stem}{ext}", "rb").read()
                assert ba == bb

    def test_blob_within_box_and_coverage(self):
        # blob pixels must stay inside the labeled box and fill >= 60% of it
        from lightdet.data import _background, _render_flame, _render_smoke
        size = 96
        for i in range(20):
            _, labels = synth_scene(np.random.default_rng([123, i]), size)
            rng2 = np.random.default_rng([123, i])
            # replay the generator stream to recover each blob mask on its own
            _background(rng2, size)
            k = 0
            n_obj = int(rng2.integers(1, 4))
            for _ in range(n_obj):
                cls = int(rng2.integers(0, 2))
                win, blob = (_render_flame if cls == 0 else _render_smoke)(rng2, size)[:2]
                mask = np.zeros((size, size), bool)  # the window's mask in the full frame
                mask[win] = blob
                if not mask.any():
                    continue
                _, cx, cy, w, h = labels[k]
                k += 1
                x1 = round(cx * size - w * size / 2)
                x2 = round(cx * size + w * size / 2) - 1
                y1 = round(cy * size - h * size / 2)
                y2 = round(cy * size + h * size / 2) - 1
                ys, xs = np.nonzero(mask)
                assert xs.min() >= x1 and xs.max() <= x2
                assert ys.min() >= y1 and ys.max() <= y2
                coverage = mask.sum() / ((x2 - x1 + 1) * (y2 - y1 + 1))
                assert coverage >= 0.6, f"scene {i} blob {k}: coverage {coverage:.2f}"

    def test_flame_is_warm_smoke_is_gray(self):
        rng = np.random.default_rng([55, 0])
        from lightdet.data import _render_flame, _render_smoke
        size = 64
        win, blob, color = _render_flame(rng, size)
        mask = np.zeros((size, size), bool)  # the window's mask in the full frame
        mask[win] = blob
        inside = color[mask[win]]
        assert (inside[:, 0] > inside[:, 2]).all()  # red dominates blue
        _, mask2, gray, alpha = _render_smoke(rng, size)
        assert 0 < alpha < 1 and 100 < gray < 250

    @pytest.mark.parametrize("size", [16, 32, 64, 96, 128, 448])
    def test_windowed_scene_equals_full_frame_oracle(self, size):
        # synth_scene renders each blob on its window only; the full-frame oracle
        # must give the same image and label bytes, and no pixel of its blob
        # mask may fall outside that window (the rim stays within 1.08)
        from lightdet.data import _render_flame, _render_smoke
        seeds, n = ((0, 7), 10) if size == 448 else ((0, 7, 31), 20)
        for seed in seeds:
            for i in range(n):
                img, labels = synth_scene(np.random.default_rng([seed, i]), size)
                ref_img, ref_labels = oracles.synth_scene(np.random.default_rng([seed, i]), size)
                assert img.tobytes() == ref_img.tobytes(), (seed, i)
                assert labels.tobytes() == ref_labels.tobytes(), (seed, i)
                blobs = _replay(np.random.default_rng([seed, i]), size,
                                _render_flame, _render_smoke)
                ref_blobs = _replay(np.random.default_rng([seed, i]), size,
                                    oracles.render_flame, oracles.render_smoke)
                for (win, mask, *_), (full, *_) in zip(blobs, ref_blobs, strict=True):
                    assert np.array_equal(full[win], mask), (seed, i)
                    assert full.sum() == mask.sum(), f"blob pixels outside window {win}"


def _replay(rng, size, render_flame, render_smoke):
    """synth_scene's draws, yielding each blob's renderer output in turn."""
    _background(rng, size)
    for _ in range(int(rng.integers(1, 4))):
        yield (render_flame if int(rng.integers(0, 2)) == 0 else render_smoke)(rng, size)


class TestLoad:
    def test_load_split_shapes(self, tmp_path):
        root = str(tmp_path)
        synth_generate(12, 3, root, size=32)
        imgs, targets, stems = load_split(root, 3, "train", 2, img_size=32)
        assert imgs.shape[1:] == (3, 32, 32)
        assert imgs.dtype == np.float32
        assert len(targets) == len(stems) == imgs.shape[0]
        assert imgs.min() >= 0 and imgs.max() <= 1

    def test_load_with_letterbox(self, tmp_path):
        root = str(tmp_path)
        synth_generate(12, 3, root, size=32)
        imgs, targets, _ = load_split(root, 3, "train", 2, img_size=64)
        assert imgs.shape[1:] == (3, 64, 64)
        for t in targets:
            assert np.all(t[:, 1:] >= 0) and np.all(t[:, 1:] <= 1)

    @pytest.mark.parametrize("img_size", [32, 48])  # as drawn, letterboxed
    def test_load_split_equals_stacked_samples(self, tmp_path, img_size):
        root = str(tmp_path)
        synth_generate(12, 3, root, size=32)
        imgs, targets, stems = load_split(root, 3, "train", 2, img_size=img_size)
        samples = [load_sample(root, stem, 2, img_size) for stem in stems]
        assert imgs.tobytes() == np.stack([chw for chw, _ in samples]).tobytes()
        for t, (_, labels) in zip(targets, samples, strict=True):
            assert t.tobytes() == labels.tobytes()

    def test_empty_split_rejected(self, tmp_path):
        root = str(tmp_path)
        synth_generate(10, 3, root, size=16)
        write_split(root, 3, [(f"synth_{i:05d}", "train") for i in range(10)])
        with pytest.raises(ValidationError, match="empty"):
            load_split(root, 3, "val", 2, img_size=16)

    def test_unknown_tag_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="tag"):
            load_split(str(tmp_path), 0, "dev", 2, img_size=32)
