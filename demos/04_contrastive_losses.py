"""Unsupervised vs meta-label contrastive losses on one augmented batch.

Both are the training objective ``combined_sp_loss`` with every pair weight 1
(``weighted=False``): the meta-label loss puts all of ``lambdas`` on one
label, and the unsupervised loss is the meta-label loss with one class per
original image, whose only positive is the other view.
"""
import numpy as np

from spcl import ModelConfig, PairStructure, ParamModel, SelfPacedConfig, combined_sp_loss
from spcl.contrastive import pair_loss_values, positive_masks
from spcl.synth_data import AugmentationPolicy, build_pair_batch, generate_dataset, per_image_labels

dataset = generate_dataset(6, 8, (16, 16), noise_level=0.2, seed=4)
model = ParamModel(ModelConfig(seed=0))
rng = np.random.default_rng(0)

refs = dataset.slice_refs("train")
pair = build_pair_batch(dataset, [refs[i] for i in rng.choice(len(refs), 8, replace=False)], AugmentationPolicy(), rng)
z = model.embed_batch(pair.images)
meta = PairStructure(pair.pair_of, pair.meta_labels)
per_image = PairStructure(pair.pair_of, per_image_labels(8))


def contrastive_loss(structure: PairStructure, lambdas=(1.0,)) -> float:
    return combined_sp_loss(z, structure, 1.0, SelfPacedConfig(tau=0.5, lambdas=lambdas), weighted=False)[0].item()


print("unsupervised loss (view pairs only):", round(contrastive_loss(per_image), 4))
positives = positive_masks(meta, (0, 1, 2)).sum(axis=2).mean(axis=1)
for k, name in enumerate(("slice partition", "patient id", "phase")):
    loss = contrastive_loss(meta, tuple(float(i == k) for i in range(3)))
    print(f"meta loss on {name:15s}: {loss:7.4f}   positives per anchor: {positives[k]:.1f}")

# with one class per original image every anchor's one positive is its twin
values = pair_loss_values(z, meta, 0.5).data
view_pairs = values[np.arange(16), meta.pair_of].mean()
print("per-image labels: loss == mean view-pair loss ->", abs(contrastive_loss(per_image) - view_pairs) < 1e-12)
