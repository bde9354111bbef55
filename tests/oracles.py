"""Reference routines the tests compare the library against.

Each one is the direct, slow form of what the library computes another way:
superoperators on row-major vectorized operators (``a.reshape(-1)``), a
finite-difference gradient of a model's raw output, and the order of a group
element by repeated multiplication.
"""

import numpy as np

from equirep.linalg import require_operator
from equirep.tasks import QmlModel, model_eval


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Matrix acting on vectorized operators as ``vec(A) -> vec(u A u^dag)``."""
    u = require_operator(u)
    return np.kron(u, u.conj())


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Matrix acting on vectorized operators as ``vec(B) -> vec([h, B])``."""
    h = require_operator(h)
    n = h.shape[0]
    eye = np.eye(n)
    return np.kron(h, eye) - np.kron(eye, h.T)


def output_gradient_fd(model: QmlModel, rho: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of the raw output in the circuit angles.

    The trainer does not use this route: it is the reference against which
    closed-form and adjoint gradients are validated.
    """
    thetas = model.circuit.parameters
    grad = np.zeros_like(thetas)
    for i in range(thetas.size):
        bump = np.zeros_like(thetas)
        bump[i] = h
        up = QmlModel(model.copies, model.circuit.with_parameters(thetas + bump),
                      model.measurement, model.readout)
        dn = QmlModel(model.copies, model.circuit.with_parameters(thetas - bump),
                      model.measurement, model.readout)
        grad[i] = (model_eval(up, rho) - model_eval(dn, rho)) / (2 * h)
    return grad


def element_order(g, a: int) -> int:
    """Order of element ``a`` of the finite group ``g``, by right products with ``a``.

    In a group it divides ``g.order``, so the walk stops there and raises on
    a table with an element of no finite order.
    """
    x = a
    for k in range(1, g.order + 1):
        if x == g.identity:
            return k
        x = int(g.mul[x, a])
    raise ValueError(f"element {a} has no order <= {g.order}")
