"""AdamW with decoupled weight decay, plus gradient clipping and warmup.

The update is kept as a pure function over arrays so its arithmetic can be
pinned down in tests independently of the stateful wrapper. The betas and
eps are the recipe's constants; the learning rate and the weight decay
belong to ``TrainConfig``, and the caller passes both on every step, so
the optimizer's only state is its moments.
"""

from __future__ import annotations

import numpy as np

from .autodiff import grad_or_zeros
from .model import ModelParams

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adamw_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    weight_decay: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step for one tensor; ``step`` is 1-based for bias correction.

    Weight decay is decoupled: it scales the incoming parameter directly
    and never enters the moment estimates, so a zero gradient still decays
    the weight by exactly lr * weight_decay * param.
    """
    if step < 1:
        raise ValueError("step is 1-based")
    dt = param.dtype.type
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * (grad * grad)
    m_hat = m / dt(1.0 - BETA1**step)
    v_hat = v / dt(1.0 - BETA2**step)
    new_param = param - dt(lr * weight_decay) * param - dt(lr) * m_hat / (np.sqrt(v_hat) + dt(EPS))
    return new_param.astype(param.dtype), m.astype(param.dtype), v.astype(param.dtype)


def global_grad_norm(grads: list[np.ndarray]) -> float:
    """The float64 norm of all gradients together. Each gradient is copied
    to float64 once and squared in place, which gives the same sum as
    squaring into a second copy."""
    total = 0.0
    for g in grads:
        g64 = g.astype(np.float64)
        np.multiply(g64, g64, out=g64)
        total += float(g64.sum())
    return float(np.sqrt(total))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm.

    Returns the pre-clip norm. Gradients at or under the limit are left
    untouched, bit for bit, and so are gradients with a non-finite norm,
    which the caller must reject.
    """
    norm = global_grad_norm(grads)
    if max_norm < norm < np.inf:
        factor = max_norm / norm
        for g in grads:
            g *= g.dtype.type(factor)
    return norm


def warmup_scale(step: int, warmup_steps: int) -> float:
    """Linear ramp over the first warmup_steps updates, then constant 1."""
    if warmup_steps <= 0:
        return 1.0
    return min(1.0, step / warmup_steps)


class AdamW:
    """Stateful wrapper applying ``adamw_update`` across a parameter store.
    It keeps the moments only; the caller passes the 1-based global step,
    which sets the bias correction, and the step's learning rate and
    weight decay."""

    def __init__(self):
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: ModelParams, step: int, lr: float, weight_decay: float) -> None:
        for name, tensor in params.items():
            grad = grad_or_zeros(tensor)
            if name not in self.moments:
                self.moments[name] = (
                    np.zeros_like(tensor.data),
                    np.zeros_like(tensor.data),
                )
            m, v = self.moments[name]
            new_data, m, v = adamw_update(tensor.data, grad, m, v, step, lr, weight_decay)
            tensor.data = new_data
            self.moments[name] = (m, v)
