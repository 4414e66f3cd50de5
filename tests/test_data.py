import numpy as np
import pytest

from salseg.tensor import Rng
from salseg import data
from salseg.data import (SampleRecord, DatasetManifest, FormatError, resize,
                         generate_synthetic, augment, save_image, load_image,
                         save_mask, load_mask, save_gray, load_gray,
                         save_dataset, load_dataset, AREA_RANGE)


class TestResize:
    def test_identity_when_same_size(self):
        img = Rng(1).uniform(0, 1, (3, 8, 8))
        np.testing.assert_array_equal(resize(img, 8), img)

    def test_constant_preserved(self):
        img = np.full((3, 16, 16), 0.4)
        np.testing.assert_allclose(resize(img, 9), 0.4, rtol=1e-12)

    def test_upsample_downsample_shapes(self):
        img = Rng(2).uniform(0, 1, (3, 8, 8))
        assert resize(img, 16).shape == (3, 16, 16)
        assert resize(img, 5).shape == (3, 5, 5)

    def test_2d_input(self):
        img = Rng(3).uniform(0, 1, (8, 8))
        out = resize(img, 4)
        assert out.shape == (4, 4)

    def test_values_within_input_hull(self):
        img = Rng(4).uniform(0, 1, (3, 8, 8))
        out = resize(img, 13)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_linear_ramp_exact(self):
        # bilinear interpolation reproduces affine fields away from borders
        x = np.arange(16, dtype=np.float64)
        img = np.broadcast_to(x, (1, 16, 16)).copy()
        out = resize(img, 8)
        # interior target columns map to exact source coordinates
        xs = (np.arange(8) + 0.5) * 2 - 0.5
        np.testing.assert_allclose(out[0, 4], xs, rtol=1e-12)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            resize(np.zeros((3, 4, 4)), 0)


class TestGenerate:
    def test_shapes_dtypes_ranges(self):
        recs = generate_synthetic(4, 32, Rng(5))
        assert len(recs) == 4
        for rec in recs:
            assert rec.image.shape == (3, 32, 32)
            assert rec.mask.shape == (32, 32)
            assert rec.mask.dtype == np.uint8
            assert set(np.unique(rec.mask)) <= {0, 1}
            assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0

    def test_area_fraction_in_range(self):
        recs = generate_synthetic(20, 32, Rng(6))
        for rec in recs:
            frac = rec.mask.mean()
            assert AREA_RANGE[0] <= frac <= AREA_RANGE[1]

    def test_deterministic(self):
        a = generate_synthetic(3, 32, Rng(7))
        b = generate_synthetic(3, 32, Rng(7))
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.image, rb.image)
            np.testing.assert_array_equal(ra.mask, rb.mask)

    def test_prefix_stable_in_n(self):
        short = generate_synthetic(2, 32, Rng(8))
        long = generate_synthetic(5, 32, Rng(8))
        for ra, rb in zip(short, long):
            np.testing.assert_array_equal(ra.image, rb.image)

    def test_samples_differ(self):
        recs = generate_synthetic(2, 32, Rng(9))
        assert not np.array_equal(recs[0].image, recs[1].image)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 32, Rng(0))
        with pytest.raises(ValueError):
            generate_synthetic(1, 33, Rng(0))
        with pytest.raises(ValueError):
            generate_synthetic(1, 4, Rng(0))


class TestAugment:
    def test_preserves_shapes_and_binarity(self):
        rec = generate_synthetic(1, 32, Rng(10))[0]
        rng = Rng(11)
        for _ in range(50):
            out = augment(rec, rng)
            assert out.image.shape == rec.image.shape
            assert out.mask.shape == rec.mask.shape
            assert set(np.unique(out.mask)) <= {0, 1}
            assert out.mask.any() and not out.mask.all()
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0
            assert out.id == rec.id

    def test_does_not_mutate_input(self):
        rec = generate_synthetic(1, 32, Rng(12))[0]
        img0, mask0 = rec.image.copy(), rec.mask.copy()
        augment(rec, Rng(13))
        np.testing.assert_array_equal(rec.image, img0)
        np.testing.assert_array_equal(rec.mask, mask0)

    def test_deterministic_per_rng(self):
        rec = generate_synthetic(1, 32, Rng(14))[0]
        a = augment(rec, Rng(15))
        b = augment(rec, Rng(15))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_produces_variation(self):
        rec = generate_synthetic(1, 32, Rng(16))[0]
        rng = Rng(17)
        outs = [augment(rec, rng) for _ in range(10)]
        assert any(not np.array_equal(o.image, outs[0].image) for o in outs[1:])


class TestImageIO:
    def test_image_round_trip(self, tmp_path):
        img = Rng(18).uniform(0, 1, (3, 16, 12))
        p = tmp_path / "a.ppm"
        save_image(p, img)
        back = load_image(p)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_8bit_exact_round_trip(self, tmp_path):
        raw = Rng(19).integers(0, 256, (3, 8, 8)).astype(np.uint8)
        img = raw.astype(np.float64) / 255.0
        p = tmp_path / "b.ppm"
        save_image(p, img)
        np.testing.assert_array_equal(load_image(p), img)

    def test_mask_round_trip(self, tmp_path):
        mask = (Rng(20).uniform(0, 1, (16, 16)) > 0.5).astype(np.uint8)
        p = tmp_path / "m.pgm"
        save_mask(p, mask)
        np.testing.assert_array_equal(load_mask(p), mask)

    def test_gray_round_trip(self, tmp_path):
        field = Rng(21).uniform(0, 1, (8, 8))
        p = tmp_path / "g.pgm"
        save_gray(p, field)
        back = load_gray(p)
        assert np.abs(back - field).max() <= 0.5 / 255.0 + 1e-12

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        payload = bytes(range(4))
        p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + payload)
        out = load_gray(p)
        np.testing.assert_allclose(out, np.arange(4).reshape(2, 2) / 255.0)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError) as exc:
            load_image(p)
        assert "byte 0" in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError) as exc:
            load_mask(p)
        assert "16" in str(exc.value) and "7" in str(exc.value)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            load_gray(p)

    def test_malformed_token(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n2 two\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            load_gray(p)

    # rounding ties go to the even level (0.5 -> 0, 1.5 -> 2, 254.5 -> 254),
    # values outside [0, 1] clip
    def test_gray_golden_bytes(self, tmp_path):
        field = np.array([[0.5, 1.5, 254.5], [-0.25 * 255, 1.25 * 255, 127.5]]) / 255
        p = tmp_path / "g.pgm"
        save_gray(p, field)
        assert p.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 2, 254, 0, 255, 128])

    def test_image_golden_bytes(self, tmp_path):
        img = np.array([[[0.5, 254.5]], [[-127.5, 2.5]], [[382.5, 1.5]]]) / 255
        p = tmp_path / "i.ppm"
        save_image(p, img)
        # pixels row-major, RGB interleaved
        assert p.read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 0, 255, 254, 2, 2])

    def test_mask_golden_bytes(self, tmp_path):
        mask = np.array([[0.5 / 255, 0.0], [-0.2, 1.7]])
        p = tmp_path / "m.pgm"
        save_mask(p, mask)
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255])

    def test_save_gray_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_gray(tmp_path / "bad.pgm", np.zeros((1, 4, 4)))

    def test_save_image_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_image(tmp_path / "bad.ppm", np.zeros((16, 16)))


class TestDatasetDir:
    def test_round_trip(self, tmp_path):
        recs = generate_synthetic(3, 16, Rng(22))
        man = save_dataset(recs, tmp_path / "ds", "train", seed=22, size=16)
        man2, back = load_dataset(tmp_path / "ds")
        assert man2 == man
        assert man2.version == data.GENERATOR_VERSION
        assert [r.id for r in back] == [r.id for r in recs]
        for ra, rb in zip(recs, back):
            np.testing.assert_array_equal(ra.mask, rb.mask)
            assert np.abs(ra.image - rb.image).max() <= 0.5 / 255.0 + 1e-12

    def test_manifest_round_trip(self, tmp_path):
        man = DatasetManifest(split="test", ids=["a", "b"], seed=3, size=64)
        p = tmp_path / "manifest.json"
        man.save(p)
        assert DatasetManifest.load(p) == man

    def test_dimension_mismatch_detected(self, tmp_path):
        recs = generate_synthetic(1, 16, Rng(23))
        save_dataset(recs, tmp_path / "ds", "train", seed=23, size=16)
        bad_mask = np.zeros((8, 8), dtype=np.uint8)
        bad_mask[0, 0] = 1
        save_mask(tmp_path / "ds" / f"{recs[0].id}_mask.pgm", bad_mask)
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "ds")
