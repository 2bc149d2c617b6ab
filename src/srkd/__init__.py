"""SRKD: structure- and relation-aware knowledge distillation for
point-cloud semantic segmentation, small enough to verify numerically."""

from .autodiff import Tensor, finite_diff_gradient
from .cloud import (IGNORE_LABEL, FixedSample, PointCloud, SceneSpec,
                    derive_seed, generate_scene, read_cloud, resample_fixed,
                    write_cloud)
from .errors import (ConfigError, DataError, NumericError, PairingError,
                     ParseError, ShapeError, SRKDError, TapeError,
                     UndefinedLossError)
from .losses import (LOSS_NAMES, LossWeights,
                     loss_amra_channel, loss_amra_point, loss_amra_voxel,
                     loss_batch_gd, loss_kd, loss_task,
                     supervoxel_features, weighted_total)
from .metrics import Metrics, confusion_matrix, metrics_from_confusion
from .models import (SegModel, load_checkpoint, make_student_from_teacher,
                     make_teacher, save_checkpoint)
from .numerics import l2_normalize_rows, log_softmax_rows
from .optim import AdamW, OneCycleSchedule
from .trainer import (Dataset, NoiseConfig, TrainConfig, ablate,
                      batch_sensitivity, dim_sensitivity, evaluate,
                      grid_for_clouds, noise_sweep, subsample_sweep,
                      train_distill, train_teacher)
from .voxelize import (CylGrid, SamplerConfig, Supervoxel,
                       batch_label_histogram, build_supervoxels,
                       sample_supervoxels, supervoxel_weight, to_cylindrical,
                       voxel_count)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
