"""Datasets: IDX binary ingestion, synthetic Gaussian blobs, and a
deterministic glyph-digit generator for producing IDX fixtures offline.

IDX layout (big-endian throughout): u32 magic (0x00000803 images,
0x00000801 labels), one u32 extent per dimension, then the raw bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import Rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    in_shape: tuple
    n_classes: int


def _read_exact(f, n: int, offset: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise IdxFormatError(
            f"truncated IDX file: wanted {n} bytes for {what} at byte offset "
            f"{offset}, got {len(buf)}"
        )
    return buf


def _load_idx_file(path: str, expect_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        offset = 0
        magic = struct.unpack(">I", _read_exact(f, 4, offset, "magic"))[0]
        offset += 4
        if magic != expect_magic:
            raise IdxFormatError(
                f"bad IDX magic in {path}: got 0x{magic:08x}, expected 0x{expect_magic:08x}"
            )
        ndim = 3 if expect_magic == IMAGES_MAGIC else 1
        dims = []
        for _ in range(ndim):
            dims.append(struct.unpack(">I", _read_exact(f, 4, offset, "dimension extent"))[0])
            offset += 4
        count = int(np.prod(dims))
        raw = _read_exact(f, count, offset, "payload")
        trailing = f.read(1)
        if trailing:
            raise IdxFormatError(f"{path}: {len(trailing)}+ unexpected bytes after payload "
                                 f"at byte offset {offset + count}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_idx(train_images: str, train_labels: str, test_images: str, test_labels: str,
             subset_n: int = 0) -> Dataset:
    """Loads an IDX image/label quadruple; images scaled to [0,1] and shaped
    [n,1,H,W]. subset_n > 0 keeps the first subset_n examples of each split
    in file order."""

    def load_pair(ip, lp):
        images = _load_idx_file(ip, IMAGES_MAGIC)
        labels = _load_idx_file(lp, LABELS_MAGIC)
        if images.shape[0] != labels.shape[0]:
            raise IdxFormatError(
                f"count mismatch: {ip} holds {images.shape[0]} images but "
                f"{lp} holds {labels.shape[0]} labels"
            )
        if images.shape[0] == 0:
            raise IdxFormatError(f"{ip} holds no images")
        if 0 in images.shape[1:]:
            raise IdxFormatError(f"{ip} holds images of zero extent "
                                 f"{images.shape[1]}x{images.shape[2]}")
        if subset_n > 0:
            images = images[:subset_n]
            labels = labels[:subset_n]
        x = (images.astype(np.float64) / 255.0)[:, None, :, :]
        return x, labels.astype(np.int64)

    x_train, y_train = load_pair(train_images, train_labels)
    x_test, y_test = load_pair(test_images, test_labels)
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    return Dataset(x_train, y_train, x_test, y_test, x_train.shape[1:], n_classes)


def write_idx(path: str, array: np.ndarray) -> None:
    """Inverse of the loader: u8 arrays only; 3-D writes an images file,
    1-D a labels file."""
    array = np.asarray(array)
    if array.dtype != np.uint8:
        raise IdxFormatError(f"IDX payload must be uint8, got {array.dtype}")
    if array.ndim == 3:
        magic = IMAGES_MAGIC
    elif array.ndim == 1:
        magic = LABELS_MAGIC
    else:
        raise IdxFormatError(f"IDX arrays are 1-D or 3-D, got shape {array.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        for d in array.shape:
            f.write(struct.pack(">I", d))
        f.write(array.tobytes())


def gen_blobs(n: int = 1000, dims: int = 2, classes: int = 4, noise: float = 0.5,
              seed: int = 0) -> Dataset:
    """Seeded Gaussian clusters at distinct axis-aligned centers, split
    80/20 train/test by fixed stride (every 5th example is test)."""
    if n < 5:
        raise ValueError(f"need n >= 5 so the test split is not empty, got n={n}")
    if dims < 1:
        raise ValueError(f"need dims >= 1, got dims={dims}")
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if noise < 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    rng = Rng(seed)
    # center spacing of 6 noise-sigmas at the default noise keeps the task
    # learnable to high accuracy by modest optimizers within a desk run
    centers = np.zeros((classes, dims))
    for c in range(classes):
        centers[c, c % dims] = 3.0 * (1 + c // dims)
    labels = np.arange(n, dtype=np.int64) % classes
    x = centers[labels] + noise * rng.normal((n, dims))
    test_mask = (np.arange(n) % 5) == 4
    return Dataset(
        x[~test_mask], labels[~test_mask], x[test_mask], labels[test_mask],
        (dims,), classes,
    )


_GLYPHS = [
    ".XXXXX.|X.....X|X.....X|X.....X|X.....X|X.....X|.XXXXX.",
    "...X...|..XX...|.X.X...|...X...|...X...|...X...|.XXXXX.",
    ".XXXXX.|X.....X|......X|....XX.|..XX...|.X.....|XXXXXXX",
    ".XXXXX.|......X|......X|..XXXX.|......X|......X|.XXXXX.",
    "....XX.|...X.X.|..X..X.|.X...X.|XXXXXXX|.....X.|.....X.",
    "XXXXXXX|X......|X......|XXXXXX.|......X|......X|XXXXXX.",
    ".XXXXX.|X......|X......|XXXXXX.|X.....X|X.....X|.XXXXX.",
    "XXXXXXX|......X|.....X.|....X..|...X...|..X....|..X....",
    ".XXXXX.|X.....X|X.....X|.XXXXX.|X.....X|X.....X|.XXXXX.",
    ".XXXXX.|X.....X|X.....X|.XXXXXX|......X|......X|.XXXXX.",
]


def _glyph_array(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit].split("|")
    bitmap = np.array([[1.0 if ch == "X" else 0.0 for ch in row] for row in rows])
    return np.kron(bitmap, np.ones((4, 4)))  # 7x7 -> 28x28


def _place(canvas_size: int, glyph: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros((canvas_size, canvas_size))
    h, w = glyph.shape
    y0, x0 = dy, dx
    ys = slice(max(0, y0), min(canvas_size, y0 + h))
    xs = slice(max(0, x0), min(canvas_size, x0 + w))
    gys = slice(ys.start - y0, ys.stop - y0)
    gxs = slice(xs.start - x0, xs.stop - x0)
    out[ys, xs] = glyph[gys, gxs]
    return out


def gen_digits(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 28x28 digit-glyph images (uint8) with jittered
    position, stroke intensity, and background noise; labels cycle 0-9."""
    rng = Rng(seed)
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    labels = (np.arange(n, dtype=np.int64) % 10)
    for i in range(n):
        glyph = _glyph_array(int(labels[i]))
        dy, dx = rng.integers(-2, 3, (2,))
        img = _place(28, glyph, int(dy), int(dx))
        intensity = rng.uniform(0.7, 1.0, ())
        noise = rng.uniform(0.0, 0.2, (28, 28))
        img = np.clip(img * intensity + noise, 0.0, 1.0)
        images[i] = np.round(img * 255.0).astype(np.uint8)
    return images, labels


def write_digits_fixture(out_dir: str, n_train: int = 1000, n_test: int = 1000,
                         seed: int = 0) -> dict[str, str]:
    """Writes a 4-file IDX fixture; returns the path map keyed like the
    dataset config fields."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    train_x, train_y = gen_digits(n_train, seed)
    test_x, test_y = gen_digits(n_test, seed + 1)
    paths = {
        "train_images": os.path.join(out_dir, "train-images.idx"),
        "train_labels": os.path.join(out_dir, "train-labels.idx"),
        "test_images": os.path.join(out_dir, "test-images.idx"),
        "test_labels": os.path.join(out_dir, "test-labels.idx"),
    }
    write_idx(paths["train_images"], train_x)
    write_idx(paths["train_labels"], train_y.astype(np.uint8))
    write_idx(paths["test_images"], test_x)
    write_idx(paths["test_labels"], test_y.astype(np.uint8))
    return paths
