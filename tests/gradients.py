"""Shared gradient-checking helpers.

Op-level checks run in float64 and reduce every output to a scalar through
fixed random weights, so the comparison covers the whole Jacobian rather
than just the diagonal a plain sum would see.

This is a plain module, not ``conftest.py``: ``perfbench/tests`` has a
conftest of its own, and when pytest collects both directories a
``from conftest import ...`` may find that one instead.
"""

import numpy as np

from dualmae import autodiff as ad
from dualmae.autodiff import Tensor
from dualmae.gradcheck import finite_difference_grad, max_rel_error


def scalar_probe(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.sum_all(ad.mul(out, ad.constant(weights)))


def assert_grads_match(make_loss, leaves, tol=1e-6, h=1e-5):
    """Compare backward() against central differences for every leaf.

    ``make_loss`` must rebuild the graph from scratch on each call; graphs
    are single-use and the finite-difference sweep re-evaluates the loss
    hundreds of times.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = make_loss()
    ad.backward(loss)
    analytic = [ad.grad_or_zeros(leaf).copy() for leaf in leaves]

    def value() -> float:
        with ad.no_grad():
            return float(make_loss().data)

    for leaf, expected in zip(leaves, analytic):
        fd = finite_difference_grad(value, leaf, h)
        err = max_rel_error(expected, fd)
        assert err < tol, f"gradient mismatch {err:.3e} on leaf of shape {leaf.shape}"


def leaf(rng: np.random.Generator, *shape) -> Tensor:
    return ad.parameter(rng.standard_normal(shape), dtype=np.float64)
