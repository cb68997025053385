"""Self-paced contrastive learning with meta-labels, end to end on synthetic
volumetric data: tape-based autodiff, temperature-scaled contrastive losses,
closed-form pair weighting with a pace schedule, a toy encoder/decoder stack
with an EMA teacher, and the semi-supervised training objective.
"""

from .autodiff import GradTape, Tensor, finite_diff_check
from .contrastive import AugmentedBatch, PairStructure
from .models import EmaTeacher, ModelConfig, ParamModel, ema_update
from .self_paced import (
    SelfPacedConfig,
    combined_sp_loss,
    loss_bounds,
    optimal_weight,
    pace_schedule,
    regularizer_value,
    sp_contrastive_loss,
)
from .semi_supervised import (
    PretrainConfig,
    SemiSupConfig,
    TrainingState,
    consistency_loss,
    dice_coefficient,
    evaluate_dice,
    run_pretraining,
    run_semisup,
    supervised_loss,
)
from .synth_data import (
    AugmentationPolicy,
    MetaLabelSpec,
    SynthDataset,
    SynthVolume,
    generate_dataset,
    load_dataset,
    meta_labels_for,
    save_dataset,
)

__version__ = "0.1.0"
