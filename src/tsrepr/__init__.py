"""Self-supervised time-series representation learning toolkit.

A numpy-only stack for comparing pretraining objectives over one shared
patch-Transformer backbone: a reverse-mode autodiff core, wavelet view
augmentation, a characteristic-function isotropy regularizer, Gaussian
process data synthesis, and a probing/fine-tuning evaluation harness.

Importing the package sets two glibc malloc thresholds for the whole
process (see ``_keep_freed_heap_mapped``); this changes no result bit.
"""

import ctypes


def _keep_freed_heap_mapped() -> None:
    """Serve blocks up to 32 MiB from the heap and trim its top only past
    32 MiB free.  With glibc's defaults, the memory a GP draw or training
    step frees goes back to the kernel and the next one faults it back in
    page by page (about 2,000 minor faults per 512-point GP draw).  Where
    libc has no ``mallopt`` (macOS, musl) it sets nothing."""
    try:
        # the running process's symbols: find_library would run ldconfig
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    limit = 32 << 20  # the largest mmap threshold 64-bit glibc accepts
    # a trim threshold alone would also pin the mmap threshold at its
    # 128 KiB default, so it is set only once the mmap threshold took
    if mallopt(m_mmap_threshold, limit):
        mallopt(m_trim_threshold, limit)


_keep_freed_heap_mapped()

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
