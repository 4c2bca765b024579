"""Slide-level multiple-instance learning: rule-based configuration, gated
attention over patch embeddings, subspace-ensemble inference with uncertainty
decomposition, and survival/classification/regression evaluation."""

from .dataio import (DatasetManifest, ManifestEntry, SlideBag, SurvivalRecord,
                     load_bags, load_manifest, read_embedding_file, save_manifest,
                     write_embedding_file)
from .errors import (CorruptionError, FormatError, MetricUndefinedError,
                     SlidemilError, ValidationError)
from .fingerprint import DataFingerprint, RunConfig, compute_fingerprint, derive_config
from .inference import (BaselineSurvival, ChunkWindows, ClsPrediction,
                        RegPrediction, SurvPrediction, adjust_patient_uncertainty,
                        aggregate_patient, chunk_windows, decompose_uncertainty,
                        estimate_baseline_survival, predict_classification,
                        predict_regression, predict_survival)
from .model import GatedAttentionMIL, cox_loss, cross_entropy_loss, grad_check, mse_loss
from .sampling import (BatchPlan, FeatureIndexSet, FixedBag, balanced_batches,
                       plain_batches, regression_batches, sample_feature_indices,
                       sample_patches, survival_batches)
from .synthetic import SyntheticSpec, generate_synthetic_dataset, write_synthetic_dataset
from .training import (Checkpoint, TrainReport, adamw_step, build_model,
                       load_checkpoint, lr_schedule, save_checkpoint, train)

__version__ = "0.1.0"
