"""motok: motion tokenization, diffusion sampling, and scene-aware evaluation."""

from .ddim import (
    Condition,
    GuidanceConfig,
    apply_cfg,
    ddim_sample,
)
from .lfq import (
    LfqCodebook,
    bits_to_indices,
    codebook_utilization,
    entropy_loss,
    indices_to_bits,
    sign_bits,
)
from .metrics import (
    GaussianStats,
    diversity,
    fit_gaussian,
    frechet_distance,
    multimodal_distance,
    r_precision,
)
from .motion import (
    MotionSequence,
    SixDof,
    WaypointTrack,
    extract_waypoints,
    repeat_waypoints,
    root_pose_of,
    to_canonical,
    to_global,
)
from .populate import (
    PlacementConfig,
    PlacementOffset,
    PlacementResult,
    SceneLessError,
    find_seed_position,
    optimize_placement,
)
from .scene import (
    SceneVoxelGrid,
    SignedDistanceField,
    body_keypoints,
    build_sdf,
    collision_score,
    contact_score,
    sample_sdf,
)
from .tokens import TokenStream
from .vae import ToyVaeConfig, ToyVaeParams, decode, encode, train

__version__ = "0.1.0"
