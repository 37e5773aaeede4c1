"""Central finite-difference verification of the analytic gradients.

The oracle never touches the backward pass: it re-evaluates the forward
loss at param +/- h for every single entry. Comparisons are normalized per
parameter tensor by the largest gradient magnitude in that tensor, since
the oracle's absolute error floor is uniform across entries and an
elementwise quotient on near-zero entries would measure rounding noise
rather than correctness.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .masking import MaskedBatch, mask_batch
from .model import DecoderConfig, EncoderConfig, ModelParams, init_params
from .text import CLS_ID, SEP_ID, TokenSequence, make_batch
from .training import step_loss

DEFAULT_STEP = 1e-4


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise difference, scaled by the largest magnitude seen."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def finite_difference_grad(
    loss_fn: Callable[[], float], tensor: Tensor, h: float = DEFAULT_STEP
) -> np.ndarray:
    """d loss / d tensor via central differences, one entry at a time."""
    flat = tensor.data.reshape(-1)
    fd = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = loss_fn()
        flat[i] = saved - h
        down = loss_fn()
        flat[i] = saved
        fd[i] = (up - down) / (2.0 * h)
    return fd.reshape(tensor.data.shape)


def tiny_setup(
    mode: str, seed: int = 0, dtype=np.float64
) -> tuple[ModelParams, TrainConfig, EncoderConfig, DecoderConfig, MaskedBatch]:
    """A two-layer, 16-dim model and one fixed masked batch of two
    sentences (one padded), small enough to sweep every parameter."""
    enc = EncoderConfig(layers=2, hidden_dim=16, heads=4, ffn_dim=64, max_len=8, vocab_size=50)
    dec = DecoderConfig(mode=mode, layers=1, heads=4)
    train = TrainConfig()
    params = init_params(enc, dec, np.random.default_rng([seed, 0]), dtype=dtype)
    rng = np.random.default_rng([seed, 1])
    first = np.concatenate([[CLS_ID], rng.integers(5, 50, size=6), [SEP_ID]])
    second = np.concatenate([[CLS_ID], rng.integers(5, 50, size=4), [SEP_ID]])
    batch = make_batch([TokenSequence(first), TokenSequence(second)])
    mbatch = mask_batch(batch, dec.mode, train.mask_ratio_encoder, train.mask_ratio_decoder, rng)
    return params, train, enc, dec, mbatch


def model_gradient_errors(mode: str, seed: int = 0) -> dict[str, float]:
    """Max normalized error per parameter tensor for one decoding mode.

    Masks are drawn once up front, so the loss is a deterministic function
    of the parameters and the finite differences are well defined.
    """
    params, train, enc, dec, mbatch = tiny_setup(mode, seed=seed, dtype=np.float64)
    for t in params.values():
        t.grad = None
    loss = step_loss(params, train, enc, dec, mbatch)
    ad.backward(loss)
    analytic = {name: ad.grad_or_zeros(t).copy() for name, t in params.items()}

    def loss_value() -> float:
        with ad.no_grad():
            return float(step_loss(params, train, enc, dec, mbatch).data)

    errors: dict[str, float] = {}
    for name, tensor in params.items():
        fd = finite_difference_grad(loss_value, tensor)
        errors[name] = max_rel_error(analytic[name], fd)
    return errors
