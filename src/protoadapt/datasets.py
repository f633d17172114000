"""Deterministic synthetic domains with a controllable covariate shift.

Two families:

* blobs: K Gaussian clusters in R^3, emitted as [n,1,1,3] "images" so the
  per-pixel pipeline applies unchanged.
* grid-seg: small RGB images composed of colored rectangles/ellipses over
  a background class, with per-pixel labels.

The target variant of either family reuses the same latent scene generator
and applies one global photometric shift: a gain per channel and additive
noise (grid-seg also scales by a smooth texture field). With a zero shift
the target bytes equal the source bytes for equal seeds.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FileFormatError
from .fileformats import format_values, load_tensor, read_keyvalue, save_tensor, write_keyvalue
from .rng import Rng, box_muller, seed_in_range

FORMAT_VERSION = "1"

# Both kinds write 3-channel images (RGB for grid-seg), one gain each.
CHANNELS = 3

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
    channel_gain: tuple[float, ...] = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.0

    def is_zero(self) -> bool:
        return all(g == 1.0 for g in self.channel_gain) and self.noise_sigma == 0.0


@dataclass
class DomainSpec:
    kind: str = "grid-seg"  # or "blobs"
    K: int = 5
    n_images: int = 2000
    height: int = 16
    width: int = 16
    shift: Shift = field(default_factory=Shift)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("blobs", "grid-seg"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not seed_in_range(self.seed):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for key in ("n_images", "height", "width"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.shift.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.shift.noise_sigma}")
        gains = self.shift.channel_gain
        if len(gains) != CHANNELS:
            raise ValueError(f"a spec needs {CHANNELS} channel_gain values, got {gains}")
        if not np.all(np.isfinite(gains)):
            raise ValueError(f"channel_gain must be finite, got {gains}")
        # A negative gain would paint a negative color intensity.
        if min(gains) < 0.0:
            raise ValueError(f"channel_gain must be >= 0, got {gains}")


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


# A spec's flat key=value form, as spec files and manifests spell it:
# DomainSpec's fields with the shift's fields in place of `shift`.
SPEC_TYPES = typing.get_type_hints(DomainSpec) | typing.get_type_hints(Shift)
del SPEC_TYPES["shift"]


def spec_from_values(values: dict) -> DomainSpec:
    """The DomainSpec whose flat form (parsed SPEC_TYPES values) is `values`;
    absent keys keep their defaults."""
    shift = {k: values[k] for k in typing.get_type_hints(Shift) if k in values}
    rest = {k: v for k, v in values.items() if k not in shift}
    return DomainSpec(shift=Shift(**shift), **rest)


def blob_centers(K: int) -> np.ndarray:
    """The K cluster centers. Like `class_colors`, they come from a fixed
    stream, not the split seed: every split of a domain shares them."""
    return Rng(0xC0FFEE).normal((K, CHANNELS)) * 2.0


def _apply_shift_points(points: np.ndarray, shift: Shift, rng: Rng) -> np.ndarray:
    out = points * np.asarray(shift.channel_gain)
    if shift.noise_sigma > 0.0:
        out = out + shift.noise_sigma * rng.normal(out.shape)
    return out


def gen_blobs(spec: DomainSpec, shifted: bool = False):
    """Labeled cluster points as ([n,1,1,3] images, [n,1,1] labels)."""
    rng = Rng(spec.seed)
    n = spec.n_images
    labels = np.arange(n, dtype=np.int64) % spec.K  # balanced within +-1
    centers = blob_centers(spec.K)
    points = centers[labels] + 0.35 * rng.normal((n, CHANNELS))
    if shifted:
        points = _apply_shift_points(points, spec.shift, rng)
    images = points.astype(np.float32).reshape(n, 1, 1, CHANNELS)
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


def class_colors(K: int) -> np.ndarray:
    """CLASS_COLORS, with classes past the eighth drawn from a fixed stream."""
    if K <= CLASS_COLORS.shape[0]:
        return CLASS_COLORS[:K]
    extra = Rng(0xC01045).uniform((K - CLASS_COLORS.shape[0], 3)) * 0.7 + 0.15
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
    colors = class_colors(spec.K)
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


def _manifest(spec: DomainSpec, split: str, labeled: bool) -> dict:
    fields = vars(spec) | vars(spec.shift)
    del fields["shift"]
    header = {"format_version": FORMAT_VERSION, "split": split, "labeled": int(labeled)}
    return header | format_values(fields)


def save_split(directory, spec: DomainSpec, split: str, images, labels=None) -> None:
    os.makedirs(directory, exist_ok=True)
    save_tensor(os.path.join(directory, "images.tns1"), images)
    if labels is not None:
        save_tensor(os.path.join(directory, "labels.tns1"), np.asarray(labels, np.float32))
    # The manifest states the shape written: blobs images are 1x1.
    shape = dict(zip(("n_images", "height", "width", "channels"), images.shape))
    write_keyvalue(
        os.path.join(directory, "manifest.txt"), _manifest(spec, split, labels is not None) | shape
    )


def load_split(directory):
    """Returns (images, labels-or-None, manifest dict).

    Rejects a manifest whose format_version is not FORMAT_VERSION, a split
    with no images, labels whose shape is not the images' [n, H, W], and a
    label that is not an integer in [0, K) for the manifest's K.
    """
    manifest = read_keyvalue(os.path.join(directory, "manifest.txt"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"{directory}: format_version {version!r} is not {FORMAT_VERSION!r}"
        )
    images = load_tensor(os.path.join(directory, "images.tns1"))
    if images.size == 0:
        raise FileFormatError(f"{directory}: split has no images (shape {images.shape})")
    labels_path = os.path.join(directory, "labels.tns1")
    labels = None
    if os.path.exists(labels_path):
        labels = load_tensor(labels_path)
        if images.ndim != 4 or labels.shape != images.shape[:3]:
            raise FileFormatError(
                f"{directory}: labels shape {labels.shape} does not match "
                f"images shape {images.shape}"
            )
        K = manifest.get("K", "")
        if not K.isdigit():
            raise FileFormatError(f"{directory}: manifest K {K!r} is not a class count")
        # NaN fails every comparison, so it is refused too.
        ok = (labels >= 0) & (labels < int(K)) & (labels == np.floor(labels))
        if not ok.all():
            bad = labels[~ok][0]
            raise FileFormatError(f"{directory}: label {bad:g} is not an integer in [0, {K})")
        labels = labels.astype(np.int64)
    return images, labels, manifest


def write_dataset(out_dir, spec: DomainSpec, n_eval: int = 500) -> dict:
    """Write the three splits: labeled source, unlabeled target, labeled eval."""
    if n_eval < 1:
        raise ValueError(f"n_eval must be >= 1, got {n_eval}")
    if not seed_in_range(spec.seed + 2):
        raise ValueError(
            "seed must be below 2**64 - 2, as the target splits take seed+1 and seed+2, "
            f"got {spec.seed}"
        )
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
