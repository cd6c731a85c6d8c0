"""Dataset plumbing: PPM codec, YOLO labels, split, letterbox, synthetic scenes.

Disk layout: <root>/images/<stem>.ppm, <root>/labels/<stem>.txt, and a split
manifest <root>/split_<seed>.txt with one "stem<TAB>tag" line per sample.
Labels are "class cx cy w h" per line, all four coordinates normalized to [0,1].
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError

PAD_GRAY = 114
SPLIT_TAGS = ("train", "val", "test")
MIN_SPLIT = 10  # the fewest samples an 8:1:1 split takes


# ---- PPM (P6, 8-bit) ----


def write_ppm(path: str, img: np.ndarray) -> None:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValidationError(f"{path}: image must be (H, W, 3) uint8")
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            nl = buf.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_ppm(path: str) -> np.ndarray:
    """Binary PPM -> (H, W, 3) uint8. Header comments tolerated."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic != b"P6":
        raise ValidationError(f"{path}: not a P6 image (magic {magic[:8]!r})")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValidationError(f"{path}: bad {what} field {tok!r}") from None
    w, h, maxval = fields
    if w <= 0 or h <= 0:
        raise ValidationError(f"{path}: bad dimensions {w}x{h}")
    if maxval != 255:
        raise ValidationError(f"{path}: unsupported maxval {maxval} (only 255)")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise ValidationError(
            f"{path}: truncated pixel data ({len(payload)} of {need} bytes)")
    return np.frombuffer(payload, np.uint8).reshape(h, w, 3).copy()


# ---- labels ----


def write_labels(path: str, rows: np.ndarray) -> None:
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    with open(path, "w") as fh:
        for cls, cx, cy, w, h in rows:
            fh.write(f"{int(cls)} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}\n")


def parse_labels(path: str, nc: int) -> np.ndarray:
    """YOLO label file -> (n, 5) float64 of (class, cx, cy, w, h).

    Blank lines are fine (a negative image is an empty file); anything else
    malformed is rejected with the offending line number.
    """
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            s = line.strip()
            if not s:
                continue
            parts = s.split()
            if len(parts) != 5:
                raise ValidationError(
                    f"{path}:{ln}: expected 5 fields, got {len(parts)}")
            try:
                cls = int(parts[0])
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise ValidationError(f"{path}:{ln}: non-numeric field") from None
            if not 0 <= cls < nc:
                raise ValidationError(
                    f"{path}:{ln}: class {cls} outside [0, {nc})")
            for name, v in zip(("cx", "cy", "w", "h"), vals):
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(
                        f"{path}:{ln}: {name}={v} outside [0, 1]")
            rows.append([cls, *vals])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 5)


# ---- split ----


def split_dataset(stems: list[str], seed: int) -> list[tuple[str, str]]:
    """Seeded shuffle, then an 8:1:1 partition in shuffle order."""
    if len(stems) < MIN_SPLIT:
        raise ValidationError(f"need at least {MIN_SPLIT} samples to split, got {len(stems)}")
    order = list(stems)
    np.random.default_rng(seed).shuffle(order)
    n = len(order)
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    tags = ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val)
    return list(zip(order, tags))


def split_path(root: str, seed: int) -> str:
    return os.path.join(root, f"split_{seed}.txt")


def write_split(root: str, seed: int, pairs: list[tuple[str, str]]) -> None:
    with open(split_path(root, seed), "w") as fh:
        for stem, tag in pairs:
            fh.write(f"{stem}\t{tag}\n")


def read_split(root: str, seed: int) -> list[tuple[str, str]]:
    path = split_path(root, seed)
    pairs = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            s = line.strip()
            if not s:
                continue
            parts = s.split("\t")
            if len(parts) != 2 or parts[1] not in SPLIT_TAGS:
                raise ValidationError(f"{path}:{ln}: bad manifest line {s!r}")
            pairs.append((parts[0], parts[1]))
    return pairs


def ensure_split(root: str, seed: int) -> list[tuple[str, str]]:
    """Load the manifest for this seed, creating it on first use."""
    if os.path.exists(split_path(root, seed)):
        return read_split(root, seed)
    img_dir = os.path.join(root, "images")
    if not os.path.isdir(img_dir):
        raise ValidationError(f"{img_dir} is not a directory")
    stems = sorted(os.path.splitext(f)[0] for f in os.listdir(img_dir)
                   if f.endswith(".ppm"))
    if not stems:
        raise ValidationError(f"no .ppm images under {img_dir}")
    pairs = split_dataset(stems, seed)
    write_split(root, seed, pairs)
    return pairs


# ---- letterbox ----


def resize_nearest(img: np.ndarray, nh: int, nw: int) -> np.ndarray:
    h, w = img.shape[:2]
    ri = np.minimum(((np.arange(nh) + 0.5) * h / nh).astype(np.int64), h - 1)
    ci = np.minimum(((np.arange(nw) + 0.5) * w / nw).astype(np.int64), w - 1)
    return img[ri][:, ci]


def letterbox(img: np.ndarray, target: int) -> tuple[np.ndarray, dict]:
    """Aspect-preserving resize onto a square gray canvas.

    The transform record carries the realized scale and padding so label
    coordinates map exactly in both directions.
    """
    h, w = img.shape[:2]
    if h <= 0 or w <= 0:
        raise ValidationError("letterbox needs a nonempty image")
    scale = min(target / w, target / h)
    nw = max(1, round(w * scale))
    nh = max(1, round(h * scale))
    resized = img if (nw, nh) == (w, h) else resize_nearest(img, nh, nw)
    px = (target - nw) // 2
    py = (target - nh) // 2
    out = np.full((target, target, 3), PAD_GRAY, dtype=img.dtype)
    out[py:py + nh, px:px + nw] = resized
    rec = {"orig_w": w, "orig_h": h, "new_w": nw, "new_h": nh,
           "pad_x": px, "pad_y": py, "target": target}
    return out, rec


def labels_to_canvas(labels: np.ndarray, rec: dict) -> np.ndarray:
    """Normalized labels in the original frame -> normalized in the canvas."""
    out = np.asarray(labels, dtype=np.float64).reshape(-1, 5).copy()
    t = rec["target"]
    out[:, 1] = (out[:, 1] * rec["new_w"] + rec["pad_x"]) / t
    out[:, 2] = (out[:, 2] * rec["new_h"] + rec["pad_y"]) / t
    out[:, 3] = out[:, 3] * rec["new_w"] / t
    out[:, 4] = out[:, 4] * rec["new_h"] / t
    return out


def hflip(img_chw: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mirror image (channel-first) and labels about the vertical axis."""
    out = np.ascontiguousarray(img_chw[..., ::-1])
    lab = np.asarray(labels, dtype=np.float64).reshape(-1, 5).copy()
    lab[:, 1] = 1.0 - lab[:, 1]
    return out, lab


# ---- synthetic scenes ----


def _window(size: int, cx: float, cy: float, hx: float, hy: float):
    """(rows, cols) slices of every pixel with |x - cx| < hx and |y - cy| < hy,
    widened by a pixel each way against rounding and clamped to the frame."""
    return (slice(max(0, int(cy - hy)), min(size, int(cy + hy) + 2)),
            slice(max(0, int(cx - hx)), min(size, int(cx + hx) + 2)))


def _render_flame(rng: np.random.Generator, size: int):
    """Warm radial gradient with a gently flickering rim, drawn on the window
    that can hold it: the rim never exceeds 1.08. Returns (window, mask, color)."""
    rx = rng.uniform(0.07, 0.13) * size
    ry = rx * rng.uniform(1.1, 1.5)
    cx = rng.uniform(rx * 1.3, size - rx * 1.3)
    cy = rng.uniform(ry * 1.3, size - ry * 1.3)
    win = _window(size, cx, cy, 1.08 * rx, 1.08 * ry)
    yy, xx = np.mgrid[win]
    dx, dy = (xx - cx) / rx, (yy - cy) / ry
    theta = np.arctan2(dy, dx)
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    rim = 1.0 + 0.05 * np.sin(3 * theta + p1) + 0.03 * np.sin(7 * theta + p2)
    d = np.sqrt(dx * dx + dy * dy) / rim
    mask = d < 1.0
    t = np.clip(d, 0, 1)[..., None]  # 0 at core, 1 at rim
    core = np.array([255.0, 225.0, 120.0])
    edge = np.array([205.0, 45.0, 10.0])
    color = core * (1 - t) + edge * t
    return win, mask, color


def _render_smoke(rng: np.random.Generator, size: int):
    """Gray translucent ellipse on its window. Returns (window, mask, gray, alpha)."""
    rx = rng.uniform(0.09, 0.16) * size
    ry = rx * rng.uniform(0.6, 0.9)
    cx = rng.uniform(rx * 1.2, size - rx * 1.2)
    cy = rng.uniform(ry * 1.2, size - ry * 1.2)
    win = _window(size, cx, cy, rx, ry)
    yy, xx = np.mgrid[win]
    mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 < 1.0
    gray = rng.uniform(150, 205)
    alpha = rng.uniform(0.6, 0.85)
    return win, mask, gray, alpha


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    base = rng.uniform(15, 70, size=3)
    tilt = rng.uniform(-25, 25, size=3)
    grad = np.linspace(0, 1, size)[:, None, None]
    img = base[None, None, :] + tilt[None, None, :] * grad
    img = img + rng.normal(0, 4, size=(size, size, 3))
    return np.clip(img, 0, 255)


def _mask_bbox_label(win: tuple, mask: np.ndarray, cls: int, size: int) -> np.ndarray:
    ys, xs = np.nonzero(mask)
    x1, x2 = xs.min() + win[1].start, xs.max() + win[1].start
    y1, y2 = ys.min() + win[0].start, ys.max() + win[0].start
    w, h = x2 - x1 + 1, y2 - y1 + 1
    return np.array([cls, (x1 + x2 + 1) / 2 / size, (y1 + y2 + 1) / 2 / size,
                     w / size, h / size], dtype=np.float64)


def synth_scene(rng: np.random.Generator, size: int):
    """One rendered scene -> (uint8 image HWC, (n,5) labels). Blobs never leave
    their labeled boxes and fill at least ~60% of them."""
    img = _background(rng, size)
    labels = []
    for _ in range(int(rng.integers(1, 4))):
        cls = int(rng.integers(0, 2))
        if cls == 0:
            win, mask, color = _render_flame(rng, size)
            img[win][mask] = color[mask]
        else:
            win, mask, gray, alpha = _render_smoke(rng, size)
            patch = img[win]
            patch[mask] = alpha * gray + (1 - alpha) * patch[mask]
        if mask.any():
            labels.append(_mask_bbox_label(win, mask, cls, size))
    return img.astype(np.uint8), np.asarray(labels, np.float64).reshape(-1, 5)


def synth_generate(n: int, seed: int, out_dir: str, size: int) -> list[str]:
    """Render n deterministic scenes into the standard dataset layout."""
    if n < 1:
        raise ValidationError("need n >= 1 images")
    img_dir = os.path.join(out_dir, "images")
    lbl_dir = os.path.join(out_dir, "labels")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(lbl_dir, exist_ok=True)
    stems = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        img, labels = synth_scene(rng, size)
        stem = f"synth_{i:05d}"
        write_ppm(os.path.join(img_dir, stem + ".ppm"), img)
        write_labels(os.path.join(lbl_dir, stem + ".txt"), labels)
        stems.append(stem)
    return stems


# ---- loading ----


def _decode(root: str, stem: str, nc: int, img_size: int):
    """One (image (S,S,3) uint8 RGB, labels (n,5)) pair, letterboxed to S = img_size."""
    img = read_ppm(os.path.join(root, "images", stem + ".ppm"))
    lbl_path = os.path.join(root, "labels", stem + ".txt")
    labels = parse_labels(lbl_path, nc) if os.path.exists(lbl_path) \
        else np.zeros((0, 5), np.float64)
    if img.shape[:2] != (img_size, img_size):
        img, rec = letterbox(img, img_size)
        labels = labels_to_canvas(labels, rec)
    return img, labels


def load_split(root: str, seed: int, tag: str, nc: int, img_size: int):
    """All samples of one split -> (images (N,3,S,S) float32, targets, stems).
    Each image is cast straight into its slot of one buffer, then scaled in place."""
    if tag not in SPLIT_TAGS:
        raise ValidationError(f"unknown split tag {tag!r}")
    pairs = ensure_split(root, seed)
    stems = [s for s, t in pairs if t == tag]
    if not stems:
        raise ValidationError(f"split {tag!r} of {root} is empty")
    images = np.empty((len(stems), 3, img_size, img_size), np.float32)
    targets = []
    for slot, stem in zip(images, stems):
        img, labels = _decode(root, stem, nc, img_size)
        slot[...] = img.transpose(2, 0, 1)
        slot /= 255.0
        targets.append(labels)
    return images, targets, stems
