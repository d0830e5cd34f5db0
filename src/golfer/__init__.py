"""Mix-and-Match blocks and the golfer trajectory predictor, desk scale."""

from .ensemble import (
    EnsembleOutput,
    WeightedTrajectorySet,
    ensemble_predict,
    min_ade,
    min_fde,
    miss_rate,
    weighted_kmeans,
)
from .mnm import MatchKind, MixKind, MnMBlockParams, init_mnm_block, match, mix, mnm_basic, mnm_query
from .model import (
    GolferConfig,
    ModelParams,
    Prediction,
    decode,
    encode_element,
    encode_scene,
    forward,
    forward_nodes,
    init_model_params,
    interact,
    load_params,
    parameter_count,
    save_params,
)
from .numerics import Node, Parameter, Tape, gradient_check
from .scene import (
    GeneratorConfig,
    GoalConditioning,
    Scene,
    SceneElement,
    apply_goal_masking,
    constant_velocity_baseline,
    encode_goal_element,
    generate_dataset,
    generate_synthetic_scene,
    prediction_conditioning,
    read_dataset,
    write_dataset,
)
from .training import (
    AdamState,
    LossBreakdown,
    TrainConfig,
    classification_loss,
    gmm_nll,
    optimizer_step,
    select_winner,
    total_loss,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
