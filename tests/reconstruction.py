"""Reconstruction accuracy, the measure acceptance criteria 5 and 6 read.

A plain module, like ``gradients.py``, so test files can share it.
"""

import numpy as np


def reconstruction_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of the (N, V) ``logits`` rows whose argmax equals the
    matching one of the N ``targets``."""
    logits = np.asarray(logits)
    if logits.shape[0] == 0:
        raise ValueError("accuracy over an empty position set is undefined")
    hits = logits.argmax(axis=-1) == targets
    return float(hits.sum() / hits.size)
