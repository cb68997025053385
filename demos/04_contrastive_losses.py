"""Unsupervised vs meta-label contrastive losses on one augmented batch."""
import numpy as np

from spcl import AugmentedBatch, ModelConfig, ParamModel, meta_contrastive_loss, unsup_contrastive_loss
from spcl.contrastive import positive_mask
from spcl.synth_data import AugmentationPolicy, build_pair_batch, generate_dataset

dataset = generate_dataset(6, 8, (16, 16), noise_level=0.2, seed=4)
model = ParamModel(ModelConfig(seed=0))
rng = np.random.default_rng(0)

refs = dataset.slice_refs("train")
pair = build_pair_batch(dataset, [refs[i] for i in rng.choice(len(refs), 8, replace=False)], AugmentationPolicy(), rng)
batch = AugmentedBatch(model.embed_batch(pair.images), pair.pair_of, pair.meta_labels)

print("unsupervised loss (view pairs only):", round(unsup_contrastive_loss(batch, 0.5).item(), 4))
for k, name in enumerate(("slice partition", "patient id", "phase")):
    loss = meta_contrastive_loss(batch, k, 0.5)
    positives = positive_mask(batch, k).sum(axis=1).mean()
    print(f"meta loss on {name:15s}: {loss.item():7.4f}   positives per anchor: {positives:.1f}")

# with one class per original image the meta loss IS the unsupervised loss
from spcl.synth_data import per_image_labels
degenerate = AugmentedBatch(batch.embeddings, batch.pair_of, per_image_labels(8))
a = unsup_contrastive_loss(degenerate, 0.5).item()
b = meta_contrastive_loss(degenerate, 0, 0.5).item()
print("degenerate labels: unsup == meta exactly ->", a == b)
