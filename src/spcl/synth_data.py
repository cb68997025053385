"""Synthetic volumetric scans with free meta-labels and controllable label noise.

Each "scan" is an ordered stack of 2-D slices showing a soft ellipse whose
radius follows a smooth unimodal profile over the slice index (an organ
appearing, growing, shrinking), with per-patient size/eccentricity/contrast
and a per-phase scaling. Meta-labels come for free from the acquisition
structure: the slice-position partition floor(Q * index / S), the patient id,
and the phase.

noise_level in [0, 1] injects the two weak-label pathologies: an integer
per-volume slice shift (partitions are computed on the shifted index, so
same-partition slices across volumes stop corresponding), and background-only
margin slices that carry a patient/partition label but no structure.

Positive pairs come from ``AugmentationPolicy``: flip, rotation, crop-resize
and intensity, drawn and applied per image. The rotation is plain NumPy. It
ports the cephes ``cosdg``/``sindg`` functions that SciPy evaluates and
repeats the coordinate and interpolation arithmetic of SciPy's
``ndimage.rotate`` (``reshape=False``, ``mode="nearest"``, order 1), so it
matches that function bit for bit; an oracle test in the suite compares the
two whenever SciPy is installed.

A policy that never rotates and whose smallest crop is the full frame (the
experiment's) draws and transforms a whole pair batch at once
(``AugmentationPolicy.apply_batch``), with the same draws and the same bits
as ``apply`` image by image; ``build_pair_batch`` picks that path from the
policy and the image shape, and a test holds it to the per-image path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidConfig
from .schema import check_at_least, check_finite, check_value

DATASET_FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")
# default share of patients held out for validation and test
VAL_FRACTION = 0.1
TEST_FRACTION = 0.2

# cross-volume centroid agreement (pixels) promised at noise_level = 0
ALIGNMENT_TOLERANCE_PX = 4.0


@dataclass(frozen=True)
class MetaLabelSpec:
    """Class counts for the three free label kinds: partition, patient, phase."""

    num_partitions: int = 4
    num_patients: int = 10
    num_phases: int = 2

    def __post_init__(self):
        check_at_least(self, num_partitions=1, num_patients=1, num_phases=1)


@dataclass
class VolumeMeta:
    """A volume's free labels: its patient, its phase, and the slice shift that misaligns its partitions."""

    patient_id: int
    phase: int
    misalignment_offset: int


@dataclass
class SynthVolume(VolumeMeta):
    slices: np.ndarray  # (S, H, W) float64 in [0, 1]
    masks: np.ndarray  # (S, H, W) int64

    @property
    def num_slices(self) -> int:
        return self.slices.shape[0]


@dataclass
class DatasetMeta:
    """What a dataset holds besides its volumes: label counts, patient ids by split, and its generation values."""

    spec: MetaLabelSpec
    splits: dict[str, list[int]]  # split name -> patient ids
    seed: int
    noise_level: float


@dataclass
class SynthDataset(DatasetMeta):
    volumes: list[SynthVolume]

    def volumes_in(self, split: str) -> list[SynthVolume]:
        ids = set(self.splits[split])
        return [v for v in self.volumes if v.patient_id in ids]

    def slice_refs(self, split: str) -> list[tuple[int, int]]:
        """(volume index, slice index) pairs covering a split."""
        ids = set(self.splits[split])
        return [
            (vi, si)
            for vi, v in enumerate(self.volumes)
            if v.patient_id in ids
            for si in range(v.num_slices)
        ]

    def first_train_patients(self, n: int) -> list[int]:
        """The first n train patients: the labeled set of a semi-supervised run."""
        train = self.splits["train"]
        if n > len(train):
            raise InvalidConfig(f"num_labeled={n} exceeds the {len(train)} patients of the train split")
        return train[:n]

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.volumes[0].slices.shape[1:]


def meta_labels_for(volume: SynthVolume, slice_index: int, spec: MetaLabelSpec) -> tuple[int, int, int]:
    """(partition, patient_id, phase) for one slice.

    The partition uses the misaligned index clipped into range, so label noise
    enters exactly here.
    """
    s = volume.num_slices
    if not (0 <= slice_index < s):
        raise InvalidConfig(f"slice index {slice_index} outside [0, {s})")
    shifted = min(max(slice_index + volume.misalignment_offset, 0), s - 1)
    partition = (spec.num_partitions * shifted) // s
    return int(partition), int(volume.patient_id), int(volume.phase)


def _soft_ellipse(shape, center, axes):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    cy, cx = center
    ay, ax = axes
    d = np.sqrt(((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2)
    return 1.0 / (1.0 + np.exp((d - 1.0) / 0.15)), d <= 1.0


def _render_slice(shape, center, axes, contrast, bg_level, distractor, pixel_noise, rng):
    """One slice: the target ellipse plus an off-center distractor of similar
    intensity that is NOT part of the ground truth (position context required
    to tell them apart)."""
    image = bg_level + rng.normal(0.0, pixel_noise, size=shape)
    mask = np.zeros(shape, dtype=np.int64)
    if axes is not None and min(axes) > 0.35:
        field, inside = _soft_ellipse(shape, center, axes)
        image = image + contrast * field
        mask[inside] = 1
    if distractor is not None:
        d_center, d_axes, d_contrast = distractor
        if min(d_axes) > 0.35:
            field, _ = _soft_ellipse(shape, d_center, d_axes)
            image = image + d_contrast * field
    return np.clip(image, 0.0, 1.0), mask


def check_generation(
    num_patients: int,
    slices_per_volume: int,
    shape: tuple[int, int],
    noise_level: float,
    num_partitions: int,
    val_fraction: float,
    test_fraction: float,
) -> tuple[int, int]:
    """Reject arguments ``generate_dataset`` cannot honour; return (val, test) patient counts."""
    if num_patients < 2:
        raise InvalidConfig(f"num_patients must be >= 2, got {num_patients}")
    if slices_per_volume < 4:
        raise InvalidConfig(f"slices_per_volume must be >= 4, got {slices_per_volume}")
    if not (1 <= num_partitions <= slices_per_volume):
        raise InvalidConfig(f"num_partitions must be in [1, slices_per_volume], got {num_partitions}")
    if min(shape) < 2:
        # augmentation crops windows of at least 2x2 pixels
        raise InvalidConfig(f"slices (height, width) must be at least 2x2 pixels, got {tuple(shape)}")
    if not (0.0 <= noise_level <= 1.0):
        raise InvalidConfig(f"noise_level must be in [0, 1], got {noise_level}")
    n_test = max(1, int(round(test_fraction * num_patients)))
    n_val = max(1, int(round(val_fraction * num_patients)))
    if n_test + n_val >= num_patients:
        raise InvalidConfig(f"num_patients = {num_patients} leaves no training patients after the val and test splits")
    return n_val, n_test


def generate_dataset(
    num_patients: int,
    slices_per_volume: int = 12,
    shape: tuple[int, int] = (16, 16),
    noise_level: float = 0.0,
    seed: int = 0,
    num_partitions: int = 4,
    val_fraction: float = VAL_FRACTION,
    test_fraction: float = TEST_FRACTION,
) -> SynthDataset:
    """Deterministic synthetic dataset: one volume per patient, split by patient.

    noise_level scales both the per-volume slice shift (zero-mean, rounded
    normal) and the fraction of background-only margin slices.
    """
    n_val, n_test = check_generation(
        num_patients, slices_per_volume, shape, noise_level, num_partitions, val_fraction, test_fraction
    )
    m, s = num_patients, slices_per_volume
    h, w = shape
    spec = MetaLabelSpec(num_partitions=num_partitions, num_patients=m)
    volumes = []
    for pid in range(m):
        rng = np.random.default_rng([seed, pid])
        phase = pid % 2
        # organ geometry varies mildly with position in the scan driving most
        # of it; appearance nuisances (contrast, background, distractor pose)
        # vary strongly across patients
        r_max = rng.uniform(0.28, 0.34) * min(h, w)
        if phase == 1:
            r_max *= 0.9
        ecc_y = rng.uniform(0.9, 1.1)
        ecc_x = rng.uniform(0.9, 1.1)
        cy0 = h / 2.0 + rng.uniform(-1.0, 1.0)
        cx0 = w / 2.0 + rng.uniform(-1.0, 1.0)
        drift_y = rng.uniform(-0.75, 0.75)
        drift_x = rng.uniform(-0.75, 0.75)
        contrast = rng.uniform(0.55, 0.90)
        bg_level = rng.uniform(0.05, 0.20)
        pixel_noise = 0.02
        d_angle = rng.uniform(0.0, 2.0 * np.pi)
        d_rmax = rng.uniform(0.14, 0.24) * min(h, w)
        d_contrast = contrast * rng.uniform(0.85, 1.0)

        offset = int(np.clip(np.round(rng.normal(0.0, noise_level * s / 5.0)), -s // 3, s // 3))
        n_empty = int(np.round(noise_level * 0.3 * s))
        lo_margin = int(rng.integers(0, n_empty + 1))
        hi_margin = n_empty - lo_margin

        slices = np.zeros((s, h, w))
        masks = np.zeros((s, h, w), dtype=np.int64)
        for si in range(s):
            frac = (si + 0.5) / s
            radius = r_max * np.sin(np.pi * frac) ** 0.9
            structured = lo_margin <= si < s - hi_margin
            axes = (radius * ecc_y, radius * ecc_x) if structured else None
            center = (cy0 + drift_y * (si / s - 0.5) * s / 4.0, cx0 + drift_x * (si / s - 0.5) * s / 4.0)
            # distractor peaks where the target vanishes (volume ends), sits
            # off-center, and tracks the target's intensity
            d_radius = d_rmax * (1.0 - np.sin(np.pi * frac)) ** 0.7
            d_center = (h / 2.0 + 0.33 * h * np.sin(d_angle), w / 2.0 + 0.33 * w * np.cos(d_angle))
            distractor = (d_center, (d_radius, d_radius), d_contrast)
            slices[si], masks[si] = _render_slice(
                shape, center, axes, contrast, bg_level, distractor, pixel_noise, rng
            )
        volumes.append(
            SynthVolume(patient_id=pid, phase=phase, slices=slices, masks=masks, misalignment_offset=offset)
        )

    ids = list(range(m))
    splits = {
        "train": ids[: m - n_val - n_test],
        "val": ids[m - n_val - n_test : m - n_test],
        "test": ids[m - n_test :],
    }
    return SynthDataset(volumes=volumes, spec=spec, splits=splits, seed=seed, noise_level=noise_level)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

# cephes ``sindg``/``cosdg``, the degree sine and cosine that SciPy's
# ``special`` module evaluates: pi/180 and the polynomials on one 45-degree octant
_PI180 = 1.74532925199432957692e-2
_SINCOF = (
    1.58962301572218447952e-10,
    -2.50507477628503540135e-8,
    2.75573136213856773549e-6,
    -1.98412698295895384658e-4,
    8.33333333332211858862e-3,
    -1.66666666666666307295e-1,
)
_COSCOF = (
    1.13678171382044553091e-11,
    -2.08758833757683644217e-9,
    2.75573155429816611547e-7,
    -2.48015872936186303776e-5,
    1.38888888888806666760e-3,
    -4.16666666666666348141e-2,
    4.99999999999999999798e-1,
)
_LOSSTH = 1.0e14  # beyond this many degrees cephes gives up and returns 0


def _polevl(x: float, coefs) -> float:
    """Horner's rule, in the order cephes ``polevl`` evaluates it."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def cos_sin_deg(x: float) -> tuple[float, float]:
    """cos and sin of ``x`` degrees, rounded exactly as cephes ``cosdg``/``sindg``.

    Multiples of 90 degrees come out exact (cos 90 is 0, not 6e-17).
    """
    ax = abs(x)
    if ax > _LOSSTH:
        return 0.0, 0.0
    y = math.floor(ax / 45.0)  # whole octants
    j = y % 16
    if j & 1:  # map zeros to the origin
        j += 1
        y += 1
    j &= 7
    cos_neg, sin_neg = False, x < 0
    if j > 3:  # reflect in the x axis
        cos_neg, sin_neg = True, not sin_neg
        j -= 4
    if j > 1:
        cos_neg = not cos_neg
    z = (ax - y * 45.0) * _PI180  # the rest, in radians
    zz = z * z
    sin_z = z + z * (zz * _polevl(zz, _SINCOF))
    cos_z = 1.0 - zz * _polevl(zz, _COSCOF)
    c, s = (sin_z, cos_z) if j in (1, 2) else (cos_z, sin_z)
    return (-c if cos_neg else c), (-s if sin_neg else s)


def rotate(image: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a 2-D image about its centre by ``angle`` degrees, bilinearly.

    This is SciPy's ``ndimage.rotate(image, angle, reshape=False, order=1,
    mode="nearest")`` bit for bit: the same cos/sin, matrix, offset and
    coordinate arithmetic, and the same interpolation sums. The border pixel
    repeats outside the frame.
    """
    src = np.asarray(image, dtype=np.float64)
    h, w = src.shape
    c, s = cos_sin_deg(angle)
    m = np.array([[c, s], [-s, c]])
    centre = (np.array([h, w]) - 1) / 2
    off = centre - m @ centre
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)
    # input coordinate of output pixel (i, j) on axis d: off[d] + i*m[d,0] + j*m[d,1]
    coords = [(off[d] + rows * m[d, 0]) + cols * m[d, 1] for d in (0, 1)]
    # like SciPy, sum the taps onto 0.0 (so a -0.0 pixel comes out as 0.0)
    taps, weights = [], []
    for cc, n in zip(coords, (h, w)):
        f = np.floor(cc)
        w0 = 1.0 - (cc - f)
        weights.append((w0, 1.0 - w0))
        # clamp the taps, not the coordinate: mode "nearest" repeats the edge
        taps.append((np.clip(f, 0, n - 1).astype(np.intp), np.clip(f + 1, 0, n - 1).astype(np.intp)))
    out = 0.0
    for iy, wy in zip(taps[0], weights[0]):
        for ix, wx in zip(taps[1], weights[1]):
            out = out + src[iy, ix] * wy * wx
    return out


@dataclass(frozen=True)
class AugmentationPolicy:
    """Transform ranges for positive-pair creation; geometry is mask-safe."""

    flip_prob: float = 0.5
    max_rotate_deg: float = 10.0
    crop_scale: tuple[float, float] = (0.85, 1.0)
    gamma_range: tuple[float, float] = (0.8, 1.25)
    brightness_delta: float = 0.1

    def __post_init__(self):
        check_finite(self, "flip_prob", "max_rotate_deg", "crop_scale", "gamma_range", "brightness_delta")
        check_at_least(self, max_rotate_deg=0.0, brightness_delta=0.0)
        lo, hi = self.crop_scale
        g_lo, g_hi = self.gamma_range
        if not (0.0 <= self.flip_prob <= 1.0):
            raise InvalidConfig(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if not (0.0 < lo <= hi <= 1.0):
            raise InvalidConfig(f"crop_scale must satisfy 0 < low <= high <= 1, got {self.crop_scale}")
        if not (0.0 < g_lo <= g_hi):
            raise InvalidConfig(f"gamma_range must satisfy 0 < low <= high, got {self.gamma_range}")

    @classmethod
    def identity(cls) -> "AugmentationPolicy":
        return cls(flip_prob=0.0, max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(1.0, 1.0), brightness_delta=0.0)

    def apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        h, w = image.shape
        flip = rng.random() < self.flip_prob
        angle = float(rng.uniform(-self.max_rotate_deg, self.max_rotate_deg))
        scale = float(rng.uniform(*self.crop_scale))
        ch, cw = max(2, round(h * scale)), max(2, round(w * scale))
        y0 = int(rng.integers(0, h - ch + 1))
        x0 = int(rng.integers(0, w - cw + 1))
        gamma = float(rng.uniform(*self.gamma_range))
        delta = float(rng.uniform(-self.brightness_delta, self.brightness_delta))
        out = np.asarray(image, dtype=np.float64)
        if flip:
            out = out[:, ::-1]
        if angle != 0.0:
            out = rotate(out, angle)
        if (ch, cw) != (h, w):
            window = out[y0 : y0 + ch, x0 : x0 + cw]
            rows = np.round(np.linspace(0, ch - 1, h)).astype(int)
            cols = np.round(np.linspace(0, cw - 1, w)).astype(int)
            out = window[rows][:, cols]
        out = np.clip(out, 0.0, 1.0) ** gamma + delta
        return np.clip(out, 0.0, 1.0)

    def batchable(self, shape: tuple[int, int]) -> bool:
        """Whether ``apply_batch`` reproduces ``apply`` on images of ``shape``.

        It does when no draw needs its own path. Without rotation and with a
        crop that always rounds to the full frame, ``apply`` consumes exactly
        five doubles per image (flip, angle, scale, gamma, delta): the two
        ``integers(0, 1)`` offsets consume none, and ``uniform(lo, hi)`` is
        ``lo + (hi - lo) * random()``. Flip and intensity are then
        elementwise. ``array ** float`` takes NumPy's square and square-root
        shortcuts at exponents 2 and 0.5, which can round differently from
        the power function, so gamma ranges holding either are excluded.
        """
        h, w = shape
        lo = self.crop_scale[0]
        g_lo, g_hi = self.gamma_range
        return (
            self.max_rotate_deg == 0.0
            and max(2, round(h * lo)) == h
            and max(2, round(w * lo)) == w
            and not any(g_lo <= e <= g_hi for e in (0.5, 2.0))
        )

    def apply_batch(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``apply`` to each image of a (B, H, W) stack in order, as whole-stack operations.

        The policy must be ``batchable`` for the image shape; the result and
        the generator's state afterwards are then those of ``apply`` called
        image by image.
        """
        images = np.asarray(images, dtype=np.float64)
        u = rng.random((images.shape[0], 5))  # flip, angle, scale, gamma, delta
        flip = u[:, 0] < self.flip_prob
        g_lo, g_hi = self.gamma_range
        gamma = g_lo + (g_hi - g_lo) * u[:, 3]
        d = self.brightness_delta
        delta = -d + (d - -d) * u[:, 4]
        out = np.where(flip[:, None, None], images[:, :, ::-1], images)
        out = np.clip(out, 0.0, 1.0) ** gamma[:, None, None] + delta[:, None, None]
        return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# batch assembly for the contrastive losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairBatch:
    """2N augmented images plus the pairing map and per-view meta-label vectors."""

    images: np.ndarray  # (2N, H, W)
    pair_of: np.ndarray  # (2N,)
    meta_labels: np.ndarray  # (K, 2N): partition, patient, phase


def interleaved_pairs(num_samples: int) -> np.ndarray:
    pair = np.arange(num_samples)
    pair[0::2] += 1
    pair[1::2] -= 1
    return pair


def per_image_labels(num_originals: int) -> np.ndarray:
    """Degenerate labels: each original image its own class (twin-only positives)."""
    return np.repeat(np.arange(num_originals), 2)[None, :]


def build_pair_batch(
    dataset: SynthDataset,
    refs: list[tuple[int, int]],
    policy: AugmentationPolicy,
    rng: np.random.Generator,
) -> PairBatch:
    """Augment each referenced slice twice and attach its three meta-labels.

    The views come from one ``apply_batch`` call when the policy is
    ``batchable`` for the dataset's image shape, and from ``apply`` image by
    image otherwise; both give the same bits and leave ``rng`` in the same
    state.
    """
    labels = np.zeros((3, 2 * len(refs)), dtype=np.int64)
    for t, (vi, si) in enumerate(refs):
        vol = dataset.volumes[vi]
        labels[:, 2 * t] = labels[:, 2 * t + 1] = meta_labels_for(vol, si, dataset.spec)
    originals = np.repeat(np.stack([dataset.volumes[vi].slices[si] for vi, si in refs]), 2, axis=0)
    if policy.batchable(originals.shape[1:]):
        images = policy.apply_batch(originals, rng)
    else:
        images = np.stack([policy.apply(image, rng) for image in originals])
    return PairBatch(images=images, pair_of=interleaved_pairs(2 * len(refs)), meta_labels=labels)


def partition_overlap_stats(dataset: SynthDataset, threshold: float = 0.2) -> dict[str, float]:
    """Mask overlap (Dice) between cross-volume slice pairs sharing a partition label.

    Quantifies how noisy the partition meta-label is: misaligned or empty
    slices drag same-partition overlap down.
    """
    by_partition: dict[int, list[tuple[int, np.ndarray]]] = {}
    for vi, vol in enumerate(dataset.volumes):
        for si in range(vol.num_slices):
            part, _, _ = meta_labels_for(vol, si, dataset.spec)
            by_partition.setdefault(part, []).append((vi, vol.masks[si]))
    overlaps = []
    for entries in by_partition.values():
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                if entries[a][0] == entries[b][0]:
                    continue
                ma, mb = entries[a][1] > 0, entries[b][1] > 0
                denom = ma.sum() + mb.sum()
                overlaps.append(1.0 if denom == 0 else 2.0 * (ma & mb).sum() / denom)
    overlaps = np.asarray(overlaps)
    return {
        "mean_overlap": float(overlaps.mean()),
        "fraction_below": float((overlaps < threshold).mean()),
        "num_pairs": int(overlaps.size),
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@dataclass
class VolumeFiles(VolumeMeta):
    """A volume's manifest entry: its labels and its ``.npy`` files, relative to the manifest."""

    images: str
    masks: str


@dataclass
class Manifest(DatasetMeta):
    """``manifest.json``: ``save_dataset`` writes this, ``load_dataset`` reads it back through ``check_value``.

    Beyond the types, a manifest holds what ``generate_dataset`` writes: a
    non-negative seed, a noise level in [0, 1], one volume per patient with
    its patient id and phase below the spec's counts, and non-empty
    ``SPLITS`` that name each patient of a volume at most once.
    """

    format_version: int
    volumes: list[VolumeFiles]

    def __post_init__(self):
        if self.format_version != DATASET_FORMAT_VERSION:
            raise InvalidConfig(f"format_version must be {DATASET_FORMAT_VERSION}, got {self.format_version}")
        check_at_least(self, seed=0)
        if not 0.0 <= self.noise_level <= 1.0:
            raise InvalidConfig(f"noise_level must be in [0, 1], got {self.noise_level}")
        volume_of: dict[int, str] = {}  # patient id -> the key of its volume
        for i, v in enumerate(self.volumes):
            key = f"volumes[{i}]"
            if not 0 <= v.patient_id < self.spec.num_patients:
                raise InvalidConfig(f"{key}.patient_id = {v.patient_id} is outside [0, spec.num_patients)")
            if not 0 <= v.phase < self.spec.num_phases:
                raise InvalidConfig(f"{key}.phase = {v.phase} is outside [0, spec.num_phases)")
            if v.patient_id in volume_of:
                raise InvalidConfig(f"{key}.patient_id = {v.patient_id} repeats {volume_of[v.patient_id]}'s")
            volume_of[v.patient_id] = key
        if sorted(self.splits) != sorted(SPLITS):
            raise InvalidConfig(f"splits must name exactly {list(SPLITS)}, got {sorted(self.splits)}")
        split_of: dict[int, str] = {}
        for name in SPLITS:
            if not self.splits[name]:
                raise InvalidConfig(f"splits.{name} must not be empty")
            for i, pid in enumerate(self.splits[name]):
                key = f"splits.{name}[{i}]"
                if pid not in volume_of:
                    raise InvalidConfig(f"{key} = {pid} names no volume's patient_id")
                if pid in split_of:
                    raise InvalidConfig(f"{key}: patient {pid} is already in split {split_of[pid]!r}")
                split_of[pid] = name


def _fields(obj, cls) -> dict:
    """``obj``'s values of the fields of ``cls``, a dataclass base it shares them through."""
    return {f.name: getattr(obj, f.name) for f in fields(cls)}


def save_dataset(dataset: SynthDataset, path) -> None:
    """Directory layout: manifest.json + one images/masks .npy pair per volume."""
    entries = [
        VolumeFiles(**_fields(vol, VolumeMeta), images=f"vol_{i:03d}_images.npy", masks=f"vol_{i:03d}_masks.npy")
        for i, vol in enumerate(dataset.volumes)
    ]
    manifest = Manifest(**_fields(dataset, DatasetMeta), format_version=DATASET_FORMAT_VERSION, volumes=entries)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for vol, entry in zip(dataset.volumes, entries):
        np.save(root / entry.images, vol.slices)
        np.save(root / entry.masks, vol.masks)
    (root / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2))


def load_dataset(path) -> SynthDataset:
    """Read a directory written by ``save_dataset``; a malformed one is a DataError naming its manifest."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {root}")
    try:
        manifest = check_value(json.loads(manifest_path.read_text()), Manifest)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {manifest_path}: {exc}") from exc
    except InvalidConfig as exc:
        raise DataError(f"malformed {manifest_path}: {exc}") from exc
    volumes = [
        SynthVolume(
            **_fields(entry, VolumeMeta),
            slices=_read_array(manifest_path, f"volumes[{i}].images", entry.images, "f", "floats in [0, 1]"),
            masks=_read_array(manifest_path, f"volumes[{i}].masks", entry.masks, "biu", "integer labels 0 or 1"),
        )
        for i, entry in enumerate(manifest.volumes)
    ]
    for i, v in enumerate(volumes):
        if v.slices.ndim != 3 or v.num_slices < 1 or min(v.slices.shape[1:]) < 2:
            raise DataError(f"{manifest_path}: volumes[{i}].images must hold (S, H, W) slices with S >= 1 and"
                            f" H, W >= 2, got shape {v.slices.shape}")
    shapes = [v.slices.shape for v in volumes]
    if len({s[1:] for s in shapes}) != 1 or any(v.masks.shape != s for s, v in zip(shapes, volumes)):
        raise DataError(
            f"{manifest_path} must name (S, H, W) slices of one (H, W) with masks of their shape, got {shapes}"
        )
    return SynthDataset(**_fields(manifest, DatasetMeta), volumes=volumes)


def _read_array(manifest_path: Path, key: str, name: str, kinds: str, holds: str) -> np.ndarray:
    """The ``.npy`` array ``name`` beside a manifest, or a DataError naming ``key``.

    Its dtype kind must be in ``kinds`` and its values in [0, 1], as ``holds`` says in words.
    """
    try:
        array = np.load(manifest_path.parent / name)
        if not isinstance(array, np.ndarray):
            raise ValueError("not an .npy array")
    except (OSError, EOFError, ValueError) as exc:
        raise DataError(f"{manifest_path}: {key} = {name!r} cannot be read: {exc}") from exc
    if array.dtype.kind not in kinds or not ((array >= 0) & (array <= 1)).all():
        raise DataError(f"{manifest_path}: {key} = {name!r} must hold {holds}")
    return array
