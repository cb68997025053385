import numpy as np
import pytest

from spcl.autodiff import GradTape, _apply
from spcl.contrastive import AugmentedBatch
from spcl.optim import RAdam
from spcl.self_paced import pace_schedule
from spcl.semi_supervised import labeled_batches, supervised_loss


def interleaved_pairs(num_samples: int) -> np.ndarray:
    """Pairing map [1, 0, 3, 2, ...]: views of original t sit at 2t, 2t+1."""
    pair = np.arange(num_samples)
    pair[0::2] += 1
    pair[1::2] -= 1
    return pair


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_batch(
    rng: np.random.Generator,
    num_originals: int,
    dim: int = 8,
    num_classes: int | list | None = None,
    num_labels: int = 1,
) -> AugmentedBatch:
    """Random unit-row batch; labels drawn per original image and copied to both views."""
    n2 = 2 * num_originals
    if num_classes is None:
        num_classes = [max(2, num_originals // 2)] * num_labels
    elif np.ndim(num_classes) == 0:
        num_classes = [int(num_classes)] * num_labels
    labels = np.zeros((len(num_classes), n2), dtype=np.int64)
    for k, ck in enumerate(num_classes):
        per_original = rng.integers(0, ck, size=num_originals)
        labels[k] = np.repeat(per_original, 2)
    return AugmentedBatch(
        embeddings=unit_rows(rng, n2, dim),
        pair_of=interleaved_pairs(n2),
        meta_labels=labels,
    )


def exploding_exp(a):
    """``autodiff.exp`` with the same forward and a backward that overflows: patch it in to fail a training's backward."""
    return _apply("exp", (a,), np.exp, lambda datas, out: lambda g: (g * out * 1e300 * 1e300,))


def reference_supervised_history(model, dataset, labeled_patients, config, seed: int) -> list[dict]:
    """Plain supervised training written out step by step, independent of spcl's training loop.

    Per epoch, labeled batches drawn with ``default_rng([seed, epoch, 0])``;
    per batch, cross-entropy, its gradient and one RAdam step at one
    learning rate for every parameter (``encoder_lr_scale`` 1). Trains
    ``model`` in place and returns the history rows run_semisup writes with
    both lambdas at zero; gamma is logged but does not enter the loss.
    """
    refs = [
        (vi, si)
        for vi, v in enumerate(dataset.volumes)
        if v.patient_id in set(labeled_patients)
        for si in range(v.num_slices)
    ]
    pace = config.self_paced.with_default_pace(config.unlabeled_batch_originals)
    optimizer = RAdam(lr=config.lr)
    names = sorted(model.params)
    history = []
    for epoch in range(config.epochs):
        gamma = pace_schedule(pace, epoch, config.epochs)
        rng = np.random.default_rng([seed, epoch, 0])
        for step, (images, masks) in enumerate(labeled_batches(dataset, refs, config.batch_size, rng)):
            with GradTape() as tape:
                loss = supervised_loss(model.segment_batch(images), masks)
            grads = tape.gradient(loss, [model.params[n] for n in names], warn_disconnected=False)
            optimizer.step(model.params, dict(zip(names, grads)))
            sup = loss.item()
            history.append({"epoch": epoch, "step": step, "sup": sup, "reg": 0.0, "sp_con": 0.0, "total": sup,
                            "gamma": gamma, "mean_w": 0.0, "min_w": 0.0, "max_w": 0.0})
    return history


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
