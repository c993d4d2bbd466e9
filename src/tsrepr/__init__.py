"""Self-supervised time-series representation learning toolkit.

A numpy-only stack for comparing pretraining objectives over one shared
patch-Transformer backbone: a reverse-mode autodiff core, wavelet view
augmentation, a characteristic-function isotropy regularizer, Gaussian
process data synthesis, and a probing/fine-tuning evaluation harness.
"""

from . import (augment, backbone, evaluate, harness, objectives, optim,
               sigreg, synthgen, tensor, tsb)
from .backbone import BackboneConfig
from .objectives import OBJECTIVES, DEFAULT_SEEDS, PretrainConfig, pretrain
from .tensor import (DomainError, NumericError, ShapeError, Tape, Tensor,
                     backward, grad_check)

__all__ = [
    "augment", "backbone", "evaluate", "harness", "objectives",
    "optim", "sigreg", "synthgen", "tensor", "tsb",
    "BackboneConfig", "OBJECTIVES", "DEFAULT_SEEDS", "PretrainConfig",
    "pretrain", "DomainError", "NumericError", "ShapeError", "Tape",
    "Tensor", "backward", "grad_check",
]

__version__ = "0.1.0"
