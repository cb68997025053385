"""End to end: self-paced contrastive pre-training, then semi-supervised
segmentation with the Mean-Teacher and contrastive regularizers."""
from spcl import ModelConfig, ParamModel, PretrainConfig, SemiSupConfig, evaluate_dice
from spcl.semi_supervised import run_pretraining, run_semisup
from spcl.synth_data import generate_dataset

dataset = generate_dataset(8, 8, (16, 16), noise_level=0.3, seed=7)
labeled = dataset.splits["train"][:2]

baseline = ParamModel(ModelConfig(seed=0))
supervised = SemiSupConfig(epochs=15, lambda_reg=0.0, lambda_sp=0.0)
state = run_semisup(baseline, dataset, labeled, supervised, seed=0)
print("supervised baseline Dice:", round(evaluate_dice(state.model, dataset).mean, 3))

model = ParamModel(ModelConfig(seed=0))
pre = run_pretraining(model, dataset, PretrainConfig(epochs=10), seed=0)
print("pre-training: sp-con loss first->last:",
      round(pre.history[0]["sp_con"], 3), "->", round(pre.history[-1]["sp_con"], 3),
      " mean pair weight at end:", round(pre.history[-1]["mean_w"], 3))

state = run_semisup(model, dataset, labeled, SemiSupConfig(epochs=15), seed=0)
print("pretrain + semi-supervised Dice:", round(evaluate_dice(state.model, dataset).mean, 3))
row = state.history[-1]
print("last step breakdown: sup %.3f  consistency %.3f  sp-con %.3f  total %.3f" %
      (row["sup"], row["reg"], row["sp_con"], row["total"]))
