"""Synthetic domain generators, shift semantics, and on-disk splits."""

import numpy as np
import pytest

from protoadapt.datasets import (
    BOUNDARY_BLEND,
    EDGE_COLOR,
    EDGE_DARKEN_MAX,
    EDGE_DARKEN_MIN,
    GEN_CHUNK,
    INTRA_CLASS_JITTER,
    DomainSpec,
    Shift,
    blob_centers,
    class_colors,
    gen_blobs,
    gen_grid_seg,
    generate,
    load_split,
    save_split,
    standard_shift_spec,
    write_dataset,
)
from protoadapt.errors import FileFormatError
from protoadapt.fileformats import read_keyvalue, save_tensor, write_keyvalue
from protoadapt.rng import Rng


class TestShift:
    def test_default_is_zero(self):
        assert Shift().is_zero()

    def test_any_component_breaks_zero(self):
        assert not Shift(mean_shift=0.1).is_zero()
        assert not Shift(rotation=0.1).is_zero()
        assert not Shift(channel_gain=(1.0, 2.0, 1.0)).is_zero()
        assert not Shift(noise_sigma=0.1).is_zero()

    def test_standard_preset(self):
        spec = standard_shift_spec(7)
        assert spec.kind == "grid-seg" and spec.K == 5 and spec.seed == 7
        assert not spec.shift.is_zero()


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            DomainSpec(kind="images")

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("channels", {"channels": 4}),
            ("rotation", {"shift": Shift(rotation=1.0)}),
            ("mean_shift", {"shift": Shift(mean_shift=5.0)}),
        ],
    )
    def test_grid_seg_rejects_fields_it_cannot_honour(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            DomainSpec(kind="grid-seg", **kwargs)
        DomainSpec(kind="blobs", **kwargs)  # blobs honour all three

    @pytest.mark.parametrize("gains", [(1.4,), (1.4, 0.7), (1.4, 0.7, 1.0, 1.0)])
    def test_grid_seg_needs_one_gain_per_channel(self, gains):
        with pytest.raises(ValueError, match="3 channel_gain values"):
            DomainSpec(kind="grid-seg", shift=Shift(channel_gain=gains))
        DomainSpec(kind="blobs", shift=Shift(channel_gain=gains))  # blobs pad with 1.0

    @pytest.mark.parametrize("kind", ["grid-seg", "blobs"])
    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan")])
    def test_negative_noise_sigma_rejected(self, kind, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            DomainSpec(kind=kind, shift=Shift(noise_sigma=sigma))

    @pytest.mark.parametrize("kind", ["grid-seg", "blobs"])
    @pytest.mark.parametrize(
        "field,shift",
        [
            ("mean_shift", Shift(mean_shift=float("nan"))),
            ("rotation", Shift(rotation=float("-inf"))),
            ("channel_gain", Shift(channel_gain=(1.4, float("inf"), 1.0))),
        ],
    )
    def test_shift_values_must_be_finite(self, kind, field, shift):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DomainSpec(kind=kind, shift=shift)

    def test_grid_seg_rejects_negative_gain(self):
        with pytest.raises(ValueError, match="channel_gain must be >= 0"):
            DomainSpec(kind="grid-seg", shift=Shift(channel_gain=(1.4, -0.7, 1.0)))
        DomainSpec(kind="grid-seg", shift=Shift(channel_gain=(1.4, 0.0, 1.0)))
        DomainSpec(kind="blobs", shift=Shift(channel_gain=(1.4, -0.7, 1.0)))  # a reflection

    def test_bad_K(self):
        with pytest.raises(ValueError):
            DomainSpec(K=1)

    @pytest.mark.parametrize("kind", ["grid-seg", "blobs"])
    @pytest.mark.parametrize("field", ["n_images", "height", "width", "channels"])
    def test_sizes_below_one_rejected(self, kind, field):
        for value in (0, -2):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                DomainSpec(kind=kind, **{field: value})

    def test_write_dataset_rejects_empty_eval_split(self, tmp_path):
        with pytest.raises(ValueError, match="n_eval must be >= 1"):
            write_dataset(tmp_path / "d", DomainSpec(n_images=2), n_eval=0)
        assert not (tmp_path / "d").exists()


class TestBlobs:
    def test_shapes_and_label_range(self):
        spec = DomainSpec(kind="blobs", K=3, n_images=90, channels=2)
        images, labels = gen_blobs(spec)
        assert images.shape == (90, 1, 1, 2)
        assert labels.shape == (90, 1, 1)
        assert labels.min() >= 0 and labels.max() < 3

    def test_balanced_classes(self):
        spec = DomainSpec(kind="blobs", K=3, n_images=90)
        _, labels = gen_blobs(spec)
        counts = np.bincount(labels.reshape(-1))
        np.testing.assert_array_equal(counts, [30, 30, 30])

    def test_points_cluster_near_centers(self):
        spec = DomainSpec(kind="blobs", K=4, n_images=400)
        images, labels = gen_blobs(spec)
        centers = blob_centers(spec)
        pts = images.reshape(400, -1)
        for j in range(4):
            mean = pts[labels.reshape(-1) == j].mean(axis=0)
            assert np.linalg.norm(mean - centers[j]) < 0.2

    def test_zero_shift_identity(self):
        spec = DomainSpec(kind="blobs", K=3, n_images=60)
        a = gen_blobs(spec, shifted=False)
        b = gen_blobs(spec, shifted=True)  # shift object is all-zero
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_missing_gains_padded_with_one(self):
        spec = DomainSpec(kind="blobs", K=3, n_images=60, shift=Shift(channel_gain=(2.0,)))
        plain, _ = gen_blobs(spec, shifted=False)
        shifted, _ = gen_blobs(spec, shifted=True)
        np.testing.assert_array_equal(shifted[..., 0], 2 * plain[..., 0])
        np.testing.assert_array_equal(shifted[..., 1:], plain[..., 1:])

    def test_gain_shift_scales_channel(self):
        spec = DomainSpec(
            kind="blobs", K=3, n_images=3000, shift=Shift(channel_gain=(2.0, 1.0, 1.0))
        )
        plain, _ = gen_blobs(spec, shifted=False)
        shifted, _ = gen_blobs(spec, shifted=True)
        ratio = shifted[..., 0].mean() / plain[..., 0].mean()
        assert ratio == pytest.approx(2.0, rel=0.01)
        np.testing.assert_allclose(shifted[..., 1], plain[..., 1], atol=1e-6)


class TestGridSeg:
    def test_shapes_dtype_label_range(self):
        spec = DomainSpec(K=5, n_images=8, height=16, width=16)
        images, labels = gen_grid_seg(spec)
        assert images.shape == (8, 16, 16, 3) and images.dtype == np.float32
        assert labels.shape == (8, 16, 16) and labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 5

    def test_determinism_bitwise(self):
        spec = standard_shift_spec(3)
        spec.n_images = 10
        a = gen_grid_seg(spec, shifted=True)
        b = gen_grid_seg(spec, shifted=True)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_different_seeds_differ(self):
        s1 = DomainSpec(n_images=4, seed=0)
        s2 = DomainSpec(n_images=4, seed=1)
        assert gen_grid_seg(s1)[0].tobytes() != gen_grid_seg(s2)[0].tobytes()

    def test_zero_shift_identity(self):
        for spec in (
            DomainSpec(n_images=6),
            DomainSpec(K=9, n_images=GEN_CHUNK + 3, height=7, width=9),
        ):
            a = gen_grid_seg(spec, shifted=False)
            b = gen_grid_seg(spec, shifted=True)
            assert a[0].tobytes() == b[0].tobytes()
            assert a[1].tobytes() == b[1].tobytes()

    def test_shift_changes_images_not_labels(self):
        spec = standard_shift_spec(1)
        spec.n_images = 6
        plain = gen_grid_seg(spec, shifted=False)
        shifted = gen_grid_seg(spec, shifted=True)
        assert plain[0].tobytes() != shifted[0].tobytes()
        np.testing.assert_array_equal(plain[1], shifted[1])

    def test_all_classes_present_with_sane_frequencies(self):
        spec = DomainSpec(K=5, n_images=200)
        _, labels = gen_grid_seg(spec)
        freq = np.bincount(labels.reshape(-1), minlength=5) / labels.size
        assert np.all(freq > 0.005)
        assert freq[0] > 0.3  # background dominates

    def test_frequency_stability_across_seed_batches(self):
        # class frequencies are a property of the scene process, not the seed
        f = []
        for seed in (0, 100):
            spec = DomainSpec(K=5, n_images=300, seed=seed)
            _, labels = gen_grid_seg(spec)
            f.append(np.bincount(labels.reshape(-1), minlength=5) / labels.size)
        np.testing.assert_allclose(f[0], f[1], rtol=0.10, atol=0.003)

    def test_images_bounded(self):
        spec = DomainSpec(n_images=10)
        images, _ = gen_grid_seg(spec)
        assert images.min() >= -0.5 and images.max() <= 1.5

    def test_generate_dispatch(self):
        blobs = generate(DomainSpec(kind="blobs", K=2, n_images=4))
        grid = generate(DomainSpec(kind="grid-seg", K=2, n_images=4))
        assert blobs[0].shape[1:3] == (1, 1)
        assert grid[0].shape[1:3] == (16, 16)


# ------------------------------------------------ per-image reference loop
# The grid-seg generator before it was batched, kept verbatim as the oracle:
# the batched generator must give the same bytes.


def _ref_normal(rng, shape):
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u1 = rng.uniform(half)
    u2 = rng.uniform(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


def _ref_paint_scene(rng, spec):
    h, w, K = spec.height, spec.width, spec.K
    label = np.zeros((h, w), dtype=np.int64)
    yy, xx = np.mgrid[0:h, 0:w]
    n_shapes = int(rng.integers(2, 6))
    for _ in range(n_shapes):
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
        if kind == 0:
            mask = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        label[mask] = cls
    return label


def _ref_smooth_field(rng, h, w):
    coarse = rng.uniform((4, 4)) * 2.0 - 1.0
    ys = np.linspace(0, 3, h)
    xs = np.linspace(0, 3, w)
    y0 = np.floor(ys).astype(int).clip(0, 2)
    x0 = np.floor(xs).astype(int).clip(0, 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    return (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)


def _ref_label_boundary(label):
    h, w = label.shape
    padded = np.pad(label, 1, mode="edge")
    mask = np.zeros((h, w), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            mask |= padded[dy : dy + h, dx : dx + w] != label
    return mask


def _ref_box_blur(img, weight):
    h, w, _ = img.shape
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    acc = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + h, dx : dx + w]
    return (1.0 - weight) * img + weight * (acc / 9.0)


def _ref_gen_grid_seg(spec, shifted=False):
    rng = Rng(spec.seed)
    colors = class_colors(spec.K, spec.seed)
    h, w = spec.height, spec.width
    images = np.empty((spec.n_images, h, w, 3), dtype=np.float32)
    labels = np.empty((spec.n_images, h, w), dtype=np.int64)
    shift = spec.shift
    gains = np.asarray(shift.channel_gain, dtype=np.float64)
    for i in range(spec.n_images):
        img_rng = rng.spawn(i)
        label = _ref_paint_scene(img_rng, spec)
        clean = _ref_box_blur(colors[label], BOUNDARY_BLEND)
        edge = _ref_label_boundary(label)
        span = EDGE_DARKEN_MAX - EDGE_DARKEN_MIN
        weight = EDGE_DARKEN_MIN + span * img_rng.uniform(label.shape)
        darken = edge[:, :, None] * weight[:, :, None]
        clean = clean + darken * (EDGE_COLOR - clean)
        clean = clean + INTRA_CLASS_JITTER * _ref_normal(img_rng, clean.shape)
        noise = _ref_normal(img_rng, clean.shape)
        texture = _ref_smooth_field(img_rng, h, w)[:, :, None]
        img = clean
        if shifted:
            img = img * gains
            img = img * (1.0 + 0.3 * shift.noise_sigma * texture)
            img = img + shift.noise_sigma * noise
        labels[i] = label
        images[i] = img.astype(np.float32)
    return images, labels


def _assert_same_bytes(got, want):
    for g, x in zip(got, want):
        assert g.dtype == x.dtype and g.shape == x.shape
        assert g.tobytes() == x.tobytes()


class TestGridSegMatchesPerImageLoop:
    SHIFT = Shift(channel_gain=(1.4, 0.7, 1.0), noise_sigma=0.1)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("hw", [(16, 16), (12, 20), (7, 9)])  # 7*9*3 is odd
    @pytest.mark.parametrize("K", [2, 3, 5, 8, 9])  # K=9 draws an extra color
    def test_same_bytes(self, K, hw, shifted):
        spec = DomainSpec(K=K, n_images=5, height=hw[0], width=hw[1], shift=self.SHIFT, seed=K)
        _assert_same_bytes(gen_grid_seg(spec, shifted), _ref_gen_grid_seg(spec, shifted))

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("n", [1, GEN_CHUNK + 3])
    def test_same_bytes_one_image_and_across_chunks(self, n, shifted):
        spec = DomainSpec(K=5, n_images=n, height=7, width=9, shift=self.SHIFT, seed=4)
        _assert_same_bytes(gen_grid_seg(spec, shifted), _ref_gen_grid_seg(spec, shifted))


class TestSplitsOnDisk:
    def test_save_load_roundtrip_labeled(self, tmp_path):
        spec = DomainSpec(n_images=5)
        images, labels = gen_grid_seg(spec)
        save_split(tmp_path / "s", spec, "source", images, labels)
        im2, lab2, manifest = load_split(tmp_path / "s")
        np.testing.assert_array_equal(im2, images)
        np.testing.assert_array_equal(lab2, labels)
        assert manifest["split"] == "source"
        assert manifest["labeled"] == "1"
        assert manifest["K"] == "5"

    def test_save_load_roundtrip_unlabeled(self, tmp_path):
        spec = DomainSpec(n_images=5)
        images, _ = gen_grid_seg(spec)
        save_split(tmp_path / "t", spec, "target_train", images)
        im2, lab2, manifest = load_split(tmp_path / "t")
        np.testing.assert_array_equal(im2, images)
        assert lab2 is None
        assert manifest["labeled"] == "0"

    def labeled_split(self, path):
        spec = DomainSpec(n_images=3)
        images, labels = gen_grid_seg(spec)
        save_split(path, spec, "source", images, labels)
        return labels

    @pytest.mark.parametrize("version", ["2", None])
    def test_format_version_checked(self, tmp_path, version):
        self.labeled_split(tmp_path / "s")
        manifest = read_keyvalue(tmp_path / "s" / "manifest.txt")
        if version is None:
            del manifest["format_version"]
        else:
            manifest["format_version"] = version
        write_keyvalue(tmp_path / "s" / "manifest.txt", manifest)
        with pytest.raises(FileFormatError, match="format_version") as exc:
            load_split(tmp_path / "s")
        assert str(tmp_path / "s") in str(exc.value)

    def test_labels_shape_checked(self, tmp_path):
        labels = self.labeled_split(tmp_path / "s")
        save_tensor(tmp_path / "s" / "labels.tns1", labels[:, :8].astype(np.float32))
        with pytest.raises(FileFormatError, match="labels shape") as exc:
            load_split(tmp_path / "s")
        assert str(tmp_path / "s") in str(exc.value)

    def test_write_dataset_layout(self, tmp_path):
        spec = standard_shift_spec(0)
        spec.n_images = 12
        paths = write_dataset(tmp_path, spec, n_eval=6)
        src_im, src_lab, src_m = load_split(paths["source"])
        tgt_im, tgt_lab, tgt_m = load_split(paths["target_train"])
        ev_im, ev_lab, ev_m = load_split(paths["target_eval"])
        assert src_lab is not None and tgt_lab is None and ev_lab is not None
        assert src_im.shape[0] == 12 and tgt_im.shape[0] == 12 and ev_im.shape[0] == 6
        # splits come from distinct seeds
        assert src_m["seed"] != tgt_m["seed"] != ev_m["seed"]
        # manifest preserves the shift description
        assert tgt_m["channel_gain"] == "1.4,0.7,1.0"
        assert float(tgt_m["noise_sigma"]) == pytest.approx(0.1)

    def test_write_dataset_source_unshifted(self, tmp_path):
        spec = standard_shift_spec(5)
        spec.n_images = 8
        paths = write_dataset(tmp_path, spec, n_eval=4)
        src_im, _, _ = load_split(paths["source"])
        ref_im, _ = gen_grid_seg(DomainSpec(**{**spec.__dict__, "seed": 5}), shifted=False)
        np.testing.assert_array_equal(src_im, ref_im)
