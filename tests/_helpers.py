"""Shared test utilities: central-difference gradients, error metrics and
parameter counts."""

import numpy as np

FD_STEP = 1e-5

# One line per acceptance criterion, echoed by conftest in the terminal
# summary so the verdicts are visible even when every test passes.
ACCEPTANCE_LINES: list[str] = []


def fd_grad(f, x, step=FD_STEP):
    """Central finite-difference gradient of the scalar function f at x.

    f must accept an array of x's shape and return a float; x itself is
    never mutated.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi.reshape(x.shape)) - f(lo.reshape(x.shape))) / (2.0 * step)
    return grad.reshape(x.shape)


def max_rel_err(analytic, reference):
    """max over coordinates of |a - r| / max(1, |r|); 0 for empty input."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    assert a.shape == r.shape
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - r) / np.maximum(1.0, np.abs(r))))


def quadratic_loss(y):
    """0.5 * sum(y^2); its gradient with respect to y is y itself."""
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * float(np.sum(y * y))


def parameter_count(net):
    """Scalars across every parameter of every stage of ``net``."""
    return sum(getattr(stage, name).size for stage in net.stages for name in stage.params)
