"""MultiCred: multilevel credibility assessment for social accounts.

End-to-end pipeline: ingest account records, build 51-dimensional user
feature vectors (profile scalars, aggregated tweet scalars, latent tweet
embeddings, comment sentiment), rebalance classes with SMOTE, train an
MLP classifier, and report multiclass metrics.

Main entry points:
- domain: score binning, criterion scoring, ingest caps
- dataset: one field table per record kind (profile, tweet), the
  records the generator builds from them, write_dataset /
  generate_synthetic
- features: scan_dataset and fill_latents (a dataset directory's feature
  rows, in two passes over user ranges, in a worker pool when more than
  one CPU is usable), LabeledDataset (ids, an n x 51 matrix, labels),
  split, smote, normalization
- classifier: build_multicred, train, predict, evaluate
- cli: the `multicred` command
"""

from .domain import (
    ClassificationSystem,
    CriteriaFlags,
    DomainError,
    bin_score,
    newsguard_score,
)
from .dataset import (
    DatasetLoadError,
    DatasetManifest,
    SyntheticConfig,
    Tweet,
    UserProfile,
    UserRecord,
    generate_synthetic,
    write_dataset,
)
from .preprocess import CleanText, preprocess
from .embedding import EmbedderSpec, analyze_sentiment, embed_texts
from .autoencoder import Autoencoder, AutoencoderSpec, SparseCorpus, train_autoencoder
from .features import (
    LabeledDataset,
    NormalizationStats,
    SplitDataset,
    UserScan,
    apply_minmax,
    fill_latents,
    fit_minmax,
    scan_dataset,
    smote,
    split,
)
from .classifier import (
    MetricsReport,
    TrainConfig,
    TrainHistory,
    build_multicred,
    evaluate,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationSystem", "CriteriaFlags", "DomainError",
    "bin_score", "newsguard_score",
    "DatasetLoadError", "DatasetManifest", "SyntheticConfig",
    "Tweet", "UserProfile", "UserRecord", "generate_synthetic", "write_dataset",
    "CleanText", "preprocess",
    "EmbedderSpec", "analyze_sentiment", "embed_texts",
    "Autoencoder", "AutoencoderSpec", "SparseCorpus", "train_autoencoder",
    "LabeledDataset", "NormalizationStats", "SplitDataset", "UserScan",
    "apply_minmax", "fill_latents", "fit_minmax",
    "scan_dataset", "smote", "split",
    "MetricsReport", "TrainConfig", "TrainHistory",
    "build_multicred", "evaluate", "predict", "train",
]
