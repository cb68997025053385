"""Synthetic volume generation, meta-labels, augmentation, persistence."""

import hashlib
import io
import json
import re

import numpy as np
import pytest

from spcl.config import ExperimentConfig
from spcl.errors import DataError, InvalidConfig
from spcl.synth_data import (
    ALIGNMENT_TOLERANCE_PX,
    AugmentationPolicy,
    MetaLabelSpec,
    SynthVolume,
    build_pair_batch,
    cos_sin_deg,
    generate_dataset,
    load_dataset,
    meta_labels_for,
    partition_overlap_stats,
    per_image_labels,
    rotate,
    save_dataset,
)


def npz_bytes() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, np.zeros((4, 8, 8), dtype=np.int64))
    return buf.getvalue()


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = generate_dataset(4, 8, (16, 16), noise_level=0.2, seed=3)
        b = generate_dataset(4, 8, (16, 16), noise_level=0.2, seed=3)
        for va, vb in zip(a.volumes, b.volumes):
            np.testing.assert_array_equal(va.slices, vb.slices)
            np.testing.assert_array_equal(va.masks, vb.masks)
            assert va.misalignment_offset == vb.misalignment_offset

    def test_values_in_unit_range_and_shapes(self):
        ds = generate_dataset(3, 6, (12, 12), seed=0)
        for v in ds.volumes:
            assert v.slices.shape == (6, 12, 12)
            assert v.slices.min() >= 0.0 and v.slices.max() <= 1.0
            assert set(np.unique(v.masks)) <= {0, 1}

    def test_no_misalignment_at_zero_noise(self):
        ds = generate_dataset(6, 12, (16, 16), noise_level=0.0, seed=1)
        assert all(v.misalignment_offset == 0 for v in ds.volumes)

    def test_partition_alignment_at_zero_noise(self):
        ds = generate_dataset(10, 12, (16, 16), noise_level=0.0, seed=7)
        centroids = {}
        for vol in ds.volumes:
            for si in range(vol.num_slices):
                part, _, _ = meta_labels_for(vol, si, ds.spec)
                m = vol.masks[si]
                if m.sum():
                    centroids.setdefault(part, []).append(np.argwhere(m).mean(axis=0))
        for part, cs in centroids.items():
            cs = np.array(cs)
            spread = np.linalg.norm(cs[:, None, :] - cs[None, :, :], axis=-1).max()
            assert spread <= ALIGNMENT_TOLERANCE_PX, f"partition {part} centroids spread {spread:.2f}px"

    def test_noise_degrades_same_partition_overlap(self):
        clean = partition_overlap_stats(generate_dataset(10, 12, (16, 16), 0.0, seed=7))
        noisy = partition_overlap_stats(generate_dataset(10, 12, (16, 16), 0.5, seed=7))
        assert noisy["fraction_below"] >= clean["fraction_below"] + 0.05
        assert noisy["mean_overlap"] < clean["mean_overlap"]

    def test_splits_disjoint_by_patient(self):
        ds = generate_dataset(10, 12, (16, 16), seed=0)
        seen = [pid for split in ds.splits.values() for pid in split]
        assert sorted(seen) == list(range(10))
        assert set(ds.splits["train"]) & set(ds.splits["test"]) == set()

    def test_preconditions(self):
        with pytest.raises(InvalidConfig):
            generate_dataset(1, 12)
        with pytest.raises(InvalidConfig):
            generate_dataset(4, 3)
        with pytest.raises(InvalidConfig):
            generate_dataset(4, 12, noise_level=1.5)


class TestMetaLabels:
    def _volume(self, s=10, offset=0):
        return SynthVolume(
            patient_id=3, phase=1,
            slices=np.zeros((s, 4, 4)), masks=np.zeros((s, 4, 4), dtype=np.int64),
            misalignment_offset=offset,
        )

    def test_floor_rule(self):
        spec = MetaLabelSpec(num_partitions=5, num_patients=4)
        assert meta_labels_for(self._volume(), 7, spec) == (3, 3, 1)
        assert meta_labels_for(self._volume(), 0, spec) == (0, 3, 1)

    def test_misalignment_shifts_partition(self):
        spec = MetaLabelSpec(num_partitions=5, num_patients=4)
        assert meta_labels_for(self._volume(offset=2), 7, spec)[0] == 4

    def test_shift_clipped_to_valid_range(self):
        spec = MetaLabelSpec(num_partitions=5, num_patients=4)
        assert meta_labels_for(self._volume(offset=5), 9, spec)[0] == 4
        assert meta_labels_for(self._volume(offset=-5), 0, spec)[0] == 0

    def test_out_of_range_slice_rejected(self):
        spec = MetaLabelSpec(num_partitions=5, num_patients=4)
        with pytest.raises(InvalidConfig):
            meta_labels_for(self._volume(), 10, spec)


def two_views(image, policy, seed):
    """Two draws of ``policy.apply`` from one generator, as a positive pair is built."""
    rng = np.random.default_rng(seed)
    return policy.apply(image, rng), policy.apply(image, rng)


class TestAugmentation:
    def test_identity_policy_returns_input(self, rng):
        img = rng.random((16, 16))
        v1, v2 = two_views(img, AugmentationPolicy.identity(), seed=5)
        np.testing.assert_array_equal(v1, img)
        np.testing.assert_array_equal(v2, img)

    def test_same_seed_same_views(self, rng):
        img = rng.random((16, 16))
        policy = AugmentationPolicy()
        a = two_views(img, policy, seed=42)
        b = two_views(img, policy, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[0], a[1])  # the second draw continues the stream

    def test_flip_only_policy_enumerable(self, rng):
        img = rng.random((16, 16))
        policy = AugmentationPolicy(flip_prob=0.5, max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(1.0, 1.0), brightness_delta=0.0)
        for seed in range(20):
            v1, v2 = two_views(img, policy, seed)
            for v in (v1, v2):
                assert np.array_equal(v, img) or np.array_equal(v, img[:, ::-1])

    def test_views_clipped_and_shaped(self, rng):
        img = rng.random((16, 16))
        v1, v2 = two_views(img, AugmentationPolicy(), seed=0)
        for v in (v1, v2):
            assert v.shape == img.shape
            assert v.min() >= 0.0 and v.max() <= 1.0



class TestRotation:
    @pytest.mark.parametrize("size", [7, 8])
    def test_quarter_turns_are_exact(self, rng, size):
        img = rng.random((size, size))
        for angle, want in [(0.0, img), (90.0, np.rot90(img, 1)), (180.0, np.rot90(img, 2)), (270.0, np.rot90(img, -1))]:
            np.testing.assert_array_equal(rotate(img, angle), want)

    def test_right_angles_have_exact_cos_sin(self):
        for deg, cs in [(0.0, (1.0, 0.0)), (90.0, (0.0, 1.0)), (180.0, (-1.0, 0.0)), (-90.0, (0.0, -1.0)), (450.0, (0.0, 1.0))]:
            assert tuple(abs(v) if v == 0.0 else v for v in cos_sin_deg(deg)) == cs

    def test_matches_scipy_rotate_bit_for_bit(self, rng):
        ndimage = pytest.importorskip("scipy.ndimage")
        special = pytest.importorskip("scipy.special")
        angles = np.concatenate([rng.uniform(-1e4, 1e4, 20000), np.arange(-720.0, 720.25, 0.25)])
        ours = np.array([cos_sin_deg(float(a)) for a in angles])
        np.testing.assert_array_equal(ours[:, 0].view(np.int64), special.cosdg(angles).view(np.int64))
        np.testing.assert_array_equal(ours[:, 1].view(np.int64), special.sindg(angles).view(np.int64))
        for trial in range(300):
            h, w = (int(n) for n in rng.integers(2, 33, 2))
            img = rng.normal(0.0, 1.0, (h, w)) if trial % 2 else rng.random((h, w))
            batch = rng.uniform(-30.0, 30.0, 3) if trial % 3 else rng.uniform(-400.0, 400.0, 3)
            for angle in batch:
                want = ndimage.rotate(img, angle, reshape=False, order=1, mode="nearest")
                assert rotate(img, angle).tobytes() == want.tobytes(), (h, w, angle)


class TestPairBatch:
    def test_default_policy_batch_is_pinned(self):
        # default flip, rotation and crop on uniform random pixels; gamma 1, no
        # brightness shift and no generated slices keep sin and pow, which may
        # differ in their last bit across CPUs, out of the digest. Recorded
        # with SciPy's ndimage.rotate.
        policy = AugmentationPolicy(gamma_range=(1.0, 1.0), brightness_delta=0.0)
        ds = generate_dataset(6, 8, (16, 16), noise_level=0.3, seed=1)
        pixels = np.random.default_rng(1)
        for vol in ds.volumes:
            vol.slices = pixels.random(vol.slices.shape)
        rng = np.random.default_rng(0)
        refs = ds.slice_refs("train")
        batch = build_pair_batch(ds, [refs[i] for i in rng.choice(len(refs), 8, replace=False)], policy, rng)
        assert batch.images.shape == (16, 16, 16)
        digest = hashlib.sha256(batch.images.tobytes()).hexdigest()
        assert digest == "c951fcffa1aca1c79d2948e11a53fafc7653aef9dc6c36c4206a9b850fdc6be6"
        assert rng.integers(0, 2**62) == 4104103359617733017

    @pytest.mark.parametrize(
        "policy, batched",
        [
            (ExperimentConfig().augment, True),
            (AugmentationPolicy.identity(), True),
            (AugmentationPolicy(flip_prob=0.5, max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(1.0, 1.0),
                                brightness_delta=0.0), True),
            (AugmentationPolicy(max_rotate_deg=0.0, crop_scale=(0.97, 1.0), gamma_range=(0.55, 1.95),
                                brightness_delta=0.5), True),  # 0.97 * 16 rounds to 16
            (AugmentationPolicy(), False),  # rotation and crop draw per image
            (AugmentationPolicy(max_rotate_deg=0.0, crop_scale=(0.9, 1.0)), False),
            (AugmentationPolicy(max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(2.0, 2.0)), False),
        ],
        ids=["experiment", "identity", "flip-only", "near-full-crop", "default", "crop", "gamma-square"],
    )
    def test_pair_batch_equals_per_image_augmentation(self, policy, batched):
        ds = generate_dataset(6, 8, (16, 16), noise_level=0.3, seed=1)
        refs = ds.slice_refs("train")
        assert policy.batchable((16, 16)) == batched
        for seed in range(25):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            take = [refs[i] for i in rng.permutation(len(refs))[:8]]
            oracle.permutation(len(refs))
            batch = build_pair_batch(ds, take, policy, rng)
            want = [policy.apply(ds.volumes[vi].slices[si], oracle) for vi, si in take for _ in range(2)]
            assert batch.images.tobytes() == np.stack(want).tobytes()
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_build_pair_batch_layout(self, rng):
        ds = generate_dataset(4, 8, (16, 16), seed=2)
        refs = ds.slice_refs("train")[:5]
        batch = build_pair_batch(ds, refs, AugmentationPolicy.identity(), rng)
        assert batch.images.shape == (10, 16, 16)
        assert batch.meta_labels.shape == (3, 10)
        for t, (vi, si) in enumerate(refs):
            np.testing.assert_array_equal(batch.images[2 * t], ds.volumes[vi].slices[si])
            assert batch.pair_of[2 * t] == 2 * t + 1
            expected = meta_labels_for(ds.volumes[vi], si, ds.spec)
            assert tuple(batch.meta_labels[:, 2 * t]) == expected
            assert tuple(batch.meta_labels[:, 2 * t + 1]) == expected

    def test_per_image_labels(self):
        np.testing.assert_array_equal(per_image_labels(3), [[0, 0, 1, 1, 2, 2]])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(4, 8, (12, 12), noise_level=0.4, seed=9)
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded.seed == ds.seed and loaded.noise_level == ds.noise_level
        assert loaded.splits == ds.splits
        assert loaded.spec == ds.spec
        for a, b in zip(ds.volumes, loaded.volumes):
            np.testing.assert_array_equal(a.slices, b.slices)
            np.testing.assert_array_equal(a.masks, b.masks)
            assert (a.patient_id, a.phase, a.misalignment_offset) == (b.patient_id, b.phase, b.misalignment_offset)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")

    def test_manifest_naming_missing_array(self, tmp_path):
        ds = generate_dataset(4, 4, (8, 8), seed=0)
        save_dataset(ds, tmp_path / "data")
        (tmp_path / "data" / "vol_001_masks.npy").unlink()
        with pytest.raises(DataError, match="vol_001_masks.npy"):
            load_dataset(tmp_path / "data")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m, root: m.pop("spec"),
            lambda m, root: m.pop("volumes"),
            lambda m, root: m["volumes"][0].pop("images"),
            lambda m, root: m["spec"].update(num_organs=3),
            lambda m, root: m.update(splits=[[0, 1]]),
            lambda m, root: m.update(volumes=[]),
            lambda m, root: np.save(root / m["volumes"][1]["images"], np.zeros((4, 8, 12))),
            lambda m, root: np.save(root / m["volumes"][1]["masks"], np.zeros((4, 8), dtype=np.int64)),
            lambda m, root: m["spec"].update(num_partitions="4"),
            lambda m, root: m["spec"].update(num_phases=2.0),
            lambda m, root: m["volumes"][2].update(patient_id="2"),
            lambda m, root: m["volumes"][0].update(phase=True),
            lambda m, root: m["volumes"][1].update(misalignment_offset=None),
            lambda m, root: m.update(seed=[0]),
            lambda m, root: m.update(noise_level="0.1"),
            lambda m, root: m["splits"].pop("test"),
            lambda m, root: m["splits"].update(holdout=[]),
            lambda m, root: m["splits"].update(train=["0", "1"]),
            lambda m, root: m["splits"].update(train=[0, True]),
            lambda m, root: m["splits"]["train"].append(99),
            lambda m, root: m["splits"]["val"].append(m["splits"]["train"][0]),
            lambda m, root: m["splits"]["train"].append(m["splits"]["train"][0]),
        ],
        ids=["no-spec", "no-volumes", "no-images", "unknown-spec-key", "splits-not-mapping", "empty-volumes",
             "other-slice-shape", "masks-not-slice-shape", "spec-str", "spec-float", "patient-id-str", "phase-bool",
             "offset-null", "seed-list", "noise-str", "split-missing", "split-unknown", "split-id-str",
             "split-id-bool", "split-id-no-volume", "split-id-in-two-splits", "split-id-twice"],
    )
    def test_malformed_manifest_is_data_error_naming_it(self, tmp_path, edit):
        ds = generate_dataset(4, 4, (8, 8), seed=0)
        save_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest, tmp_path / "data")
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_dataset(tmp_path / "data")

    @pytest.mark.parametrize("shape", [(0, 8, 8), (4, 1, 8), (4, 8, 1), (4, 1, 1)])
    def test_volume_without_slices_or_below_2x2_is_data_error_naming_it(self, tmp_path, shape):
        # a zero-slice volume used to load, and training then ran on it
        ds = generate_dataset(4, 4, (8, 8), seed=0)
        save_dataset(ds, tmp_path / "data")
        root = tmp_path / "data"
        manifest = json.loads((root / "manifest.json").read_text())
        np.save(root / manifest["volumes"][1]["images"], np.zeros(shape))
        np.save(root / manifest["volumes"][1]["masks"], np.zeros(shape, dtype=np.int64))
        with pytest.raises(DataError, match=r"volumes\[1\]\.images .* got shape " + re.escape(str(shape))):
            load_dataset(root)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m, root: m.update(format_version=True), "format_version"),  # True == 1 used to load
            (lambda m, root: m.update(seed=-1), "seed"),
            (lambda m, root: m.update(noise_level=float("nan")), "noise_level"),
            (lambda m, root: m.update(noise_level=float("inf")), "noise_level"),
            (lambda m, root: m.update(noise_level=-1), "noise_level"),
            (lambda m, root: m.update(noise_level=1e300), "noise_level"),
            (lambda m, root: m["spec"].update(num_partitions=0), "spec: num_partitions"),
            (lambda m, root: m["spec"].update(num_patients=-1), "spec: num_patients"),
            (lambda m, root: m["spec"].update(num_phases=0), "spec: num_phases"),
            (lambda m, root: m["splits"].update(train=[]), "splits.train"),
            (lambda m, root: m["splits"].update(test=[]), "splits.test"),
            (lambda m, root: m["volumes"][1].update(patient_id=4), "volumes[1].patient_id"),
            (lambda m, root: m["volumes"][2].update(patient_id=0), "volumes[2].patient_id"),
            (lambda m, root: m["volumes"][0].update(phase=2), "volumes[0].phase"),
            (lambda m, root: np.save(root / "vol_001_images.npy", np.full((4, 8, 8), np.nan)), "volumes[1].images"),
            (lambda m, root: np.save(root / "vol_001_images.npy", np.full((4, 8, 8), 1.5)), "volumes[1].images"),
            (lambda m, root: np.save(root / "vol_001_images.npy", np.zeros((4, 8, 8), dtype=np.int64)),
             "volumes[1].images"),
            (lambda m, root: np.save(root / "vol_002_masks.npy", np.full((4, 8, 8), 5)), "volumes[2].masks"),
            (lambda m, root: np.save(root / "vol_002_masks.npy", np.full((4, 8, 8), 0.5)), "volumes[2].masks"),
            (lambda m, root: (root / "vol_002_masks.npy").write_bytes(npz_bytes()), "volumes[2].masks"),
        ],
        ids=["version-true", "seed-negative", "noise-nan", "noise-inf", "noise-negative", "noise-huge",
             "spec-partitions-0", "spec-patients-negative", "spec-phases-0", "train-empty", "test-empty",
             "patient-id-beyond-spec", "patient-id-repeated", "phase-beyond-spec", "images-nan", "images-above-1",
             "images-int", "masks-5", "masks-float", "masks-npz"],
    )
    def test_values_no_generator_writes_are_data_errors_naming_file_and_key(self, tmp_path, edit, key):
        ds = generate_dataset(4, 4, (8, 8), seed=0)
        save_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest, tmp_path / "data")
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(str(path))) as info:
            load_dataset(tmp_path / "data")
        assert key in str(info.value)

    def test_manifest_keys_are_format_1(self, tmp_path):
        """The manifest a save writes has the keys format 1 has always had."""
        save_dataset(generate_dataset(4, 4, (8, 8), seed=0), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest) == ["format_version", "noise_level", "seed", "spec", "splits", "volumes"]
        assert sorted(manifest["spec"]) == ["num_partitions", "num_patients", "num_phases"]
        assert sorted(manifest["splits"]) == ["test", "train", "val"]
        assert manifest["volumes"][1] == {"patient_id": 1, "phase": 1, "misalignment_offset": 0,
                                          "images": "vol_001_images.npy", "masks": "vol_001_masks.npy"}

    def test_manifest_too_deep_to_parse(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"x": ' * 100_000)  # used to raise RecursionError
        with pytest.raises(DataError, match="manifest.json"):
            load_dataset(tmp_path)

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(DataError, match="is not a JSON object"):
            load_dataset(tmp_path)

    def test_bad_version(self, tmp_path):
        ds = generate_dataset(4, 4, (8, 8), seed=0)
        save_dataset(ds, tmp_path / "data")
        manifest = (tmp_path / "data" / "manifest.json")
        manifest.write_text(manifest.read_text().replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(DataError):
            load_dataset(tmp_path / "data")
