"""Synthetic domain generators, shift semantics, and on-disk splits."""

import numpy as np
import pytest

from protoadapt.datasets import (
    DomainSpec,
    Shift,
    blob_centers,
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

    def test_bad_K(self):
        with pytest.raises(ValueError):
            DomainSpec(K=1)


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
        spec = DomainSpec(n_images=6)
        a = gen_grid_seg(spec, shifted=False)
        b = gen_grid_seg(spec, shifted=True)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

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
