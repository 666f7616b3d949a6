"""Self-supervised cross-view embedding retrieval toolkit."""

__version__ = "0.1.0"

from .clustering import DbscanParams, PseudoLabels, dbscan
from .config import ABLATIONS, TrainConfig
from .datagen import Corpus, SyntheticSpec, generate, load_corpus
from .encoder import EncoderParams, forward, init_params
from .numcore import Rng
from .training import EpochRecord, Trainer

__all__ = [
    "ABLATIONS",
    "Corpus",
    "DbscanParams",
    "EncoderParams",
    "EpochRecord",
    "PseudoLabels",
    "Rng",
    "SyntheticSpec",
    "TrainConfig",
    "Trainer",
    "dbscan",
    "forward",
    "generate",
    "init_params",
    "load_corpus",
    "__version__",
]
