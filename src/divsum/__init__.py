"""Video summarization with diverse global and local contextual attention.

The public surface re-exports the pieces a script usually needs: the
autograd matrix and its error classes, both attention paths, the heads
and losses, training (`loss_and_grads` is the one way to get a step's
gradients), shot segmentation and summary selection, metrics, and the
data plumbing. The tape and `backward` stay in `divsum.autograd`.
"""

from .attention import (AttentionOutput, GdaParams, GridSpec, LcaParams,
                        dca_fuse, gda_forward, lca_forward, partition_map,
                        partition_map_csv, pairwise_similarity,
                        sinusoidal_positions)
from .autograd import ContractError, Matrix, NumericError, ShapeError
from .config import ConfigError, TrainConfig, load_config
from .data import (DataFormatError, DatasetManifest, SynthSpec, VideoRecord,
                   load_dataset, load_manifest, save_dataset, save_video,
                   load_video, synth_generate)
from .evaluation import (EvalProtocol, EvalReport, FoldSplit, build_folds,
                         evaluate, fscore, human_baseline, kendall_tau,
                         random_baseline, spearman_rho)
from .heads import HeadParams, bce_loss, reconstruction_loss, \
    repelling_loss, score_frames, total_loss
from .model import ModelParams, forward_loss, forward_scores
from .segmentation import (ShotPartition, SummaryMask, knapsack_select,
                           kts_segment, shot_scores, summarize_video)
from .training import (AdamState, TrainResult, adam_step, init_params,
                       load_checkpoint, loss_and_grads, save_checkpoint, train)

__version__ = "0.1.0"
