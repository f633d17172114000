"""Deterministic synthetic domains with a controllable covariate shift.

Two families:

* blobs: K Gaussian clusters in R^C, emitted as [n,1,1,C] "images" so the
  per-pixel pipeline applies unchanged.
* grid-seg: small RGB images composed of colored rectangles/ellipses over
  a background class, with per-pixel labels.

The target variant of either family reuses the same latent scene generator
and applies a global photometric transform (channel gains, rotation for
blobs, additive noise, smooth texture field). With a zero shift the target
bytes equal the source bytes for equal seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FileFormatError
from .fileformats import load_tensor, read_keyvalue, save_tensor, write_keyvalue
from .rng import Rng, box_muller

FORMAT_VERSION = "1"

# Per-pixel color jitter shared by both domains; large enough that class
# colors overlap near boundaries and classifier confidence varies.
INTRA_CLASS_JITTER = 0.05

# Shape-boundary anti-aliasing: pixel colors are blended with the 3x3
# neighborhood mean by this weight, so boundary pixels carry mixed colors
# under a single hard label.
BOUNDARY_BLEND = 0.5

# Label-boundary pixels are additionally pulled toward a dark outline
# color by a random per-pixel weight in [EDGE_DARKEN_MIN, EDGE_DARKEN_MAX].
# These pixels keep their hard class label while their colors collapse
# toward a region shared by every class: the low-confidence outliers that
# the confidence threshold exists to remove.
EDGE_COLOR = np.array([0.05, 0.05, 0.05])
EDGE_DARKEN_MIN = 0.0
EDGE_DARKEN_MAX = 0.6

# Images rendered per batch of array operations in gen_grid_seg; bounds its
# float64 temporaries to a few MB whatever n_images is.
GEN_CHUNK = 256

# A grid-seg scene has 2 to MAX_SHAPES shapes.
MAX_SHAPES = 5

# Base colors for grid-seg classes (class 0 is background). Chosen so the
# standard channel-gain shift (1.4, 0.7, 1.0) pushes several classes across
# the source decision boundaries.
CLASS_COLORS = np.array(
    [
        [0.35, 0.55, 0.45],  # background
        [0.55, 0.35, 0.40],
        [0.25, 0.75, 0.55],
        [0.50, 0.60, 0.25],
        [0.90, 0.20, 0.85],
        [0.20, 0.40, 0.70],
        [0.75, 0.70, 0.35],
        [0.45, 0.25, 0.60],
    ],
    dtype=np.float64,
)


@dataclass
class Shift:
    mean_shift: float = 0.0
    rotation: float = 0.0
    channel_gain: tuple[float, ...] = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.0

    def is_zero(self) -> bool:
        return (
            self.mean_shift == 0.0
            and self.rotation == 0.0
            and all(g == 1.0 for g in self.channel_gain)
            and self.noise_sigma == 0.0
        )


@dataclass
class DomainSpec:
    kind: str = "grid-seg"  # or "blobs"
    K: int = 5
    n_images: int = 2000
    height: int = 16
    width: int = 16
    channels: int = 3
    shift: Shift = field(default_factory=Shift)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("blobs", "grid-seg"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        for key in ("n_images", "height", "width", "channels"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.shift.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.shift.noise_sigma}")
        for key in ("mean_shift", "rotation", "channel_gain"):
            if not np.all(np.isfinite(getattr(self.shift, key))):
                raise ValueError(f"{key} must be finite, got {getattr(self.shift, key)}")
        if self.kind == "grid-seg":
            # grid-seg images are RGB, and its shift has no rotation or mean
            # shift: a spec that sets them would describe data never written.
            for key, value, allowed in (
                ("channels", self.channels, 3),
                ("rotation", self.shift.rotation, 0.0),
                ("mean_shift", self.shift.mean_shift, 0.0),
            ):
                if value != allowed:
                    raise ValueError(f"grid-seg requires {key}={allowed}, got {value}")
            # One gain per RGB channel; blobs pad missing gains with 1.0.
            if len(self.shift.channel_gain) != 3:
                raise ValueError(
                    f"grid-seg requires 3 channel_gain values, got {self.shift.channel_gain}"
                )
            # A negative gain would paint a negative color intensity.
            if min(self.shift.channel_gain) < 0.0:
                raise ValueError(
                    f"grid-seg channel_gain must be >= 0, got {self.shift.channel_gain}"
                )
        # blobs would ignore a gain past its last channel, and a rotation
        # when it has one channel.
        elif any(g != 1.0 for g in self.shift.channel_gain[self.channels :]):
            raise ValueError(
                f"blobs with channels={self.channels} cannot apply "
                f"channel_gain={self.shift.channel_gain}"
            )
        elif self.shift.rotation != 0.0 and self.channels < 2:
            raise ValueError(f"blobs rotation needs channels >= 2, got channels={self.channels}")


def standard_shift_spec(seed: int = 0) -> DomainSpec:
    """The frozen "standard synthetic shift" preset (format version 1)."""
    return DomainSpec(
        kind="grid-seg",
        K=5,
        n_images=2000,
        height=16,
        width=16,
        shift=Shift(channel_gain=(1.4, 0.7, 1.0), noise_sigma=0.1),
        seed=seed,
    )


def blob_centers(spec: DomainSpec) -> np.ndarray:
    """Deterministic cluster centers, spread by a seeded draw."""
    rng = Rng(spec.seed ^ 0xC0FFEE)
    centers = rng.normal((spec.K, spec.channels)) * 2.0
    return centers


def _apply_shift_points(points: np.ndarray, shift: Shift, rng: Rng) -> np.ndarray:
    out = points.copy()
    if shift.rotation != 0.0:
        c, s = np.cos(shift.rotation), np.sin(shift.rotation)
        xy = out[:, :2].copy()
        out[:, 0] = c * xy[:, 0] - s * xy[:, 1]
        out[:, 1] = s * xy[:, 0] + c * xy[:, 1]
    gains = np.asarray(shift.channel_gain[: out.shape[1]])
    if gains.shape[0] < out.shape[1]:
        gains = np.concatenate([gains, np.ones(out.shape[1] - gains.shape[0])])
    out = out * gains
    out[:, 0] += shift.mean_shift
    if shift.noise_sigma > 0.0:
        out = out + shift.noise_sigma * rng.normal(out.shape)
    return out


def gen_blobs(spec: DomainSpec, shifted: bool = False):
    """Labeled cluster points as ([n,1,1,C] images, [n,1,1] labels)."""
    rng = Rng(spec.seed)
    n, K, c = spec.n_images, spec.K, spec.channels
    labels = np.arange(n, dtype=np.int64) % K  # balanced within +-1
    centers = blob_centers(spec)
    points = centers[labels] + 0.35 * rng.normal((n, c))
    if shifted:
        points = _apply_shift_points(points, spec.shift, rng)
    images = points.astype(np.float32).reshape(n, 1, 1, c)
    return images, labels.reshape(n, 1, 1)


def _scene_shapes(rng: Rng, K: int, h: int, w: int) -> list:
    """One latent scene's draws: its shapes, as (cls, kind, cy, cx, ry, rx)."""
    shapes = []
    for _ in range(int(rng.integers(2, MAX_SHAPES + 1))):
        # The last class appears only as small speckle shapes, so most of
        # its pixels sit near a label boundary.
        cls = int(rng.integers(1, K))
        kind = int(rng.integers(0, 2))
        cy = float(rng.uniform()) * h
        cx = float(rng.uniform()) * w
        if cls == K - 1:
            ry = 1.2 + float(rng.uniform())
            rx = 1.2 + float(rng.uniform())
        else:
            ry = 2.5 + float(rng.uniform()) * (h / 3.5)
            rx = 2.5 + float(rng.uniform()) * (w / 3.5)
        shapes.append((cls, kind, cy, cx, ry, rx))
    return shapes


def _paint(scenes: list, h: int, w: int) -> np.ndarray:
    """[b,h,w] label maps: each scene's shapes painted in order over background.

    Kind 0 is a rectangle and kind 1 an ellipse, centred at (cy, cx) with
    half-extents (ry, rx).
    """
    table = np.zeros((len(scenes), MAX_SHAPES, 6))
    table[:, :, 4:] = 1.0  # radii of unused slots, whose class 0 paints nothing
    for j, shapes in enumerate(scenes):
        table[j, : len(shapes)] = shapes
    yy, xx = np.mgrid[0:h, 0:w]
    label = np.zeros((len(scenes), h, w), dtype=np.int64)
    for cls, kind, cy, cx, ry, rx in table.transpose(1, 2, 0)[..., None, None]:
        rect = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        ellipse = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        painted = np.where(kind == 0, rect, ellipse) & (cls > 0)
        label = np.where(painted, cls.astype(np.int64), label)
    return label


def _smooth_field(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    """Low-frequency [b,h,w] fields in [-1,1], bilinear over [b,4,4] uniforms."""
    coarse = coarse * 2.0 - 1.0
    ys = np.linspace(0, 3, h)
    xs = np.linspace(0, 3, w)
    y0 = np.floor(ys).astype(int).clip(0, 2)[:, None]
    x0 = np.floor(xs).astype(int).clip(0, 2)[None, :]
    fy = ys[:, None] - y0
    fx = xs[None, :] - x0
    c00 = coarse[:, y0, x0]
    c01 = coarse[:, y0, x0 + 1]
    c10 = coarse[:, y0 + 1, x0]
    c11 = coarse[:, y0 + 1, x0 + 1]
    return (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)


def _label_boundary(label: np.ndarray) -> np.ndarray:
    """Mask of [b,h,w] pixels that touch a different label in their 3x3 window."""
    _, h, w = label.shape
    padded = np.pad(label, ((0, 0), (1, 1), (1, 1)), mode="edge")
    mask = np.zeros(label.shape, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            mask |= padded[:, dy : dy + h, dx : dx + w] != label
    return mask


def _box_blur(img: np.ndarray, weight: float) -> np.ndarray:
    """Blend each [b,h,w,c] pixel with its 3x3 (edge-replicated) neighborhood mean."""
    _, h, w, _ = img.shape
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")
    acc = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            acc += padded[:, dy : dy + h, dx : dx + w]
    return (1.0 - weight) * img + weight * (acc / 9.0)


def class_colors(K: int, seed: int = 0) -> np.ndarray:
    if K <= CLASS_COLORS.shape[0]:
        return CLASS_COLORS[:K]
    rng = Rng(seed ^ 0xC01045)
    extra = rng.uniform((K - CLASS_COLORS.shape[0], 3)) * 0.7 + 0.15
    return np.concatenate([CLASS_COLORS, extra])


def _render(spec: DomainSpec, shifted: bool, colors, labels, draws) -> np.ndarray:
    """[b,h,w,3] float64 images from [b,h,w] label maps and each image's
    uniform draws (the layout `gen_grid_seg` documents)."""
    b, h, w = labels.shape
    hw, size = h * w, h * w * 3
    half = (size + 1) // 2

    def normals(start):  # one Box-Muller block: u1 then u2, half draws each
        u1 = draws[:, start : start + half]
        u2 = draws[:, start + half : start + 2 * half]
        return box_muller(u1, u2)[:, :size].reshape(b, h, w, 3)

    clean = _box_blur(colors[labels], BOUNDARY_BLEND)
    edge = _label_boundary(labels)
    span = EDGE_DARKEN_MAX - EDGE_DARKEN_MIN
    weight = EDGE_DARKEN_MIN + span * draws[:, :hw].reshape(b, h, w)
    darken = edge[..., None] * weight[..., None]
    clean = clean + darken * (EDGE_COLOR - clean)
    # Intra-class jitter exists in both domains; the noise and texture draws
    # are made for both too, so zero-shift target bytes equal source bytes.
    clean = clean + INTRA_CLASS_JITTER * normals(hw)
    if not shifted:
        return clean
    shift = spec.shift
    texture = _smooth_field(draws[:, -16:].reshape(b, 4, 4), h, w)[..., None]
    img = clean * np.asarray(shift.channel_gain, dtype=np.float64)
    img = img * (1.0 + 0.3 * shift.noise_sigma * texture)
    return img + shift.noise_sigma * normals(hw + 2 * half)


def gen_grid_seg(spec: DomainSpec, shifted: bool = False):
    """Labeled images ([n,H,W,3] float32, [n,H,W] int64 labels).

    Image i draws from its own stream `Rng(spec.seed).spawn(i)`: first the
    scene (`_scene_shapes`), then one uniform block holding, in order, the
    H*W edge-darkening weights, the jitter and the noise Box-Muller blocks
    (u1 then u2, ceil(H*W*3/2) draws each) and the 4x4 texture grid.
    Painting and rendering run over GEN_CHUNK images at a time.
    """
    rng = Rng(spec.seed)
    colors = class_colors(spec.K, spec.seed)
    n, h, w = spec.n_images, spec.height, spec.width
    images = np.empty((n, h, w, 3), dtype=np.float32)
    labels = np.empty((n, h, w), dtype=np.int64)
    n_draws = h * w + 4 * ((h * w * 3 + 1) // 2) + 16
    for start in range(0, n, GEN_CHUNK):
        stop = min(start + GEN_CHUNK, n)
        scenes, draws = [], np.empty((stop - start, n_draws))
        for i in range(start, stop):
            img_rng = rng.spawn(i)
            scenes.append(_scene_shapes(img_rng, spec.K, h, w))
            draws[i - start] = img_rng.uniform(n_draws)
        labels[start:stop] = _paint(scenes, h, w)
        images[start:stop] = _render(spec, shifted, colors, labels[start:stop], draws)
    return images, labels


def generate(spec: DomainSpec, shifted: bool = False):
    if spec.kind == "blobs":
        return gen_blobs(spec, shifted)
    return gen_grid_seg(spec, shifted)


# ---------------------------------------------------------------- on disk


def _manifest(spec: DomainSpec, split: str, labeled: bool, n: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": spec.kind,
        "K": spec.K,
        "split": split,
        "labeled": int(labeled),
        "n_images": n,
        "height": spec.height,
        "width": spec.width,
        "channels": spec.channels,
        "mean_shift": spec.shift.mean_shift,
        "rotation": spec.shift.rotation,
        "channel_gain": ",".join(str(g) for g in spec.shift.channel_gain),
        "noise_sigma": spec.shift.noise_sigma,
        "seed": spec.seed,
    }


def save_split(directory, spec: DomainSpec, split: str, images, labels=None) -> None:
    os.makedirs(directory, exist_ok=True)
    save_tensor(os.path.join(directory, "images.tns1"), images)
    if labels is not None:
        save_tensor(os.path.join(directory, "labels.tns1"), np.asarray(labels, np.float32))
    write_keyvalue(
        os.path.join(directory, "manifest.txt"),
        _manifest(spec, split, labels is not None, images.shape[0]),
    )


def load_split(directory):
    """Returns (images, labels-or-None, manifest dict).

    Rejects a manifest whose format_version is not FORMAT_VERSION and
    labels whose shape is not the images' [n, H, W].
    """
    manifest = read_keyvalue(os.path.join(directory, "manifest.txt"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"{directory}: format_version {version!r} is not {FORMAT_VERSION!r}"
        )
    images = load_tensor(os.path.join(directory, "images.tns1"))
    labels_path = os.path.join(directory, "labels.tns1")
    labels = None
    if os.path.exists(labels_path):
        labels = load_tensor(labels_path).astype(np.int64)
        if images.ndim != 4 or labels.shape != images.shape[:3]:
            raise FileFormatError(
                f"{directory}: labels shape {labels.shape} does not match "
                f"images shape {images.shape}"
            )
    return images, labels, manifest


def write_dataset(out_dir, spec: DomainSpec, n_eval: int = 500) -> dict:
    """Write the three splits: labeled source, unlabeled target, labeled eval."""
    if n_eval < 1:
        raise ValueError(f"n_eval must be >= 1, got {n_eval}")
    source = replace(spec, seed=spec.seed)
    target_train = replace(spec, seed=spec.seed + 1)
    target_eval = replace(spec, seed=spec.seed + 2, n_images=n_eval)

    src_images, src_labels = generate(source, shifted=False)
    tgt_images, _ = generate(target_train, shifted=True)
    ev_images, ev_labels = generate(target_eval, shifted=True)

    paths = {
        "source": os.path.join(out_dir, "source"),
        "target_train": os.path.join(out_dir, "target_train"),
        "target_eval": os.path.join(out_dir, "target_eval"),
    }
    save_split(paths["source"], source, "source", src_images, src_labels)
    save_split(paths["target_train"], target_train, "target_train", tgt_images)
    save_split(paths["target_eval"], target_eval, "target_eval", ev_images, ev_labels)
    return paths
