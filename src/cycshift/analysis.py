"""State classification built on the maximized shift.

The maximized shift separates the classical from the entangled regime
for two qubits: any convex mixture of product states has d_max at most
1/sqrt(2), so exceeding that bound certifies entanglement.  The partial
transpose test complements the bound (exact for 2x2 and 2x3, sufficient
elsewhere), and a correlation matrix of the outer-product form
alpha * rA rB^T pins d_max to zero regardless of alpha.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bloch import _bloch_vectors
from .cyclic import (
    DEFAULT_RESTARTS,
    EPS_DEGENERATE,
    TOL_CYCLIC,
    _check_positive_finite,
    _d_max_of_states,
    _states,
    d_max,
)
from .errors import DimensionError, NotAStateError
from .operators import gell_mann_basis

SEPARABLE_BOUND = 1.0 / math.sqrt(2.0)
TOL_BOUND = 1e-9
PPT_EIG_FLOOR = -1e-10
OUTER_FIT_TOL = 1e-8


def partial_transpose(rho, dims):
    """Partial transpose on subsystem B, of each matrix of a stack."""
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (da * db, da * db):
        raise DimensionError(
            f"operator shape {rho.shape} does not match dims ({da}, {db})"
        )
    return rho.reshape(*rho.shape[:-2], da, db, da, db).swapaxes(-3, -1).reshape(rho.shape)


def ppt_test(state):
    """Minimum eigenvalue of the partial transpose and the verdict.

    Returns (min_eigenvalue, entangled).  ``entangled`` is True when the
    minimum eigenvalue falls below -1e-10.  A negative partial transpose
    certifies entanglement in any dimensions; positivity is conclusive
    for separability only on 2x2 and 2x3 systems.
    """
    min_eig = float(_min_pt_eigenvalues(state.rho[None], state.dims)[0])
    return min_eig, min_eig < PPT_EIG_FLOOR


def _min_pt_eigenvalues(rhos, dims):
    """Minimum eigenvalue of the partial transpose of each state in a stack."""
    pt = partial_transpose(rhos, dims)
    herm = pt.conj().swapaxes(-1, -2)
    herm += pt
    herm /= 2.0
    return np.linalg.eigvalsh(herm).min(axis=1)


def _outer_product_fit(r_a, r_b, beta, tol=OUTER_FIT_TOL):
    """Best fit of beta to alpha * rA rB^T, clamped to alpha in [0, 1].

    Returns (alpha, fits) where ``fits`` is True when the residual is
    within ``tol`` entrywise.  When either Bloch vector vanishes the
    outer product is zero, so only beta = 0 fits.
    """
    na2 = float(r_a @ r_a)
    nb2 = float(r_b @ r_b)
    if na2 * nb2 < 1e-24:
        return 0.0, bool(np.abs(beta).max() <= tol)
    alpha = float(r_a @ beta @ r_b) / (na2 * nb2)
    alpha = min(max(alpha, 0.0), 1.0)
    residual = np.abs(beta - alpha * np.outer(r_a, r_b)).max()
    return alpha, bool(residual <= tol)


@dataclass(frozen=True)
class DetectionReport:
    """Classification summary for one state.

    ``classification`` is one of 'entangled-certified', 'product-like'
    and 'classically-correlated-compatible', checked in that order of
    precedence.  ``gisin_bmax`` is populated for pure two-qubit states
    only.  ``bound_violated`` refers to the two-qubit separability bound
    d_max <= 1/sqrt(2) and is always False on other dimensions.
    """

    d_max: float
    bound_violated: bool
    ppt_negative: bool
    min_pt_eigenvalue: float
    gisin_bmax: float | None
    theorem_class: bool
    classification: str

    def to_json_dict(self):
        return asdict(self)


def detect(state, *, restarts=DEFAULT_RESTARTS, rng=None, tol_bound=TOL_BOUND,
           eps_deg=EPS_DEGENERATE, tol_cyclic=TOL_CYCLIC):
    """Run the full detection battery on a state.

    Computes the maximized shift, the separability-bound comparison, the
    partial transpose test and the outer-product classification, and
    combines them into a DetectionReport.  ``restarts``, ``rng``,
    ``eps_deg`` and ``tol_cyclic`` mean what they mean for ``d_max``, and
    the outer-product fit reads the r_B and beta that ``d_max`` computes.
    ``tol_bound`` must be positive and finite.
    """
    _check_positive_finite("tol_bound", tol_bound)
    states = _states(state.rho[None], state.dims, eps_deg)
    result = _d_max_of_states(states, restarts, "auto", rng, None, tol_cyclic)
    min_eig, ppt_negative = ppt_test(state)
    r_a = _bloch_vectors(state.rho_a, gell_mann_basis(state.dim_a))
    _, theorem_class = _outer_product_fit(r_a, states.r_b[0], states.beta[0])
    two_qubit = state.dims == (2, 2)
    bound_violated = bool(two_qubit and result.d > SEPARABLE_BOUND + tol_bound)
    if bound_violated or ppt_negative:
        classification = "entangled-certified"
    elif theorem_class:
        classification = "product-like"
    else:
        classification = "classically-correlated-compatible"
    gisin = None
    if two_qubit and abs(state.purity() - 1.0) <= 1e-9:
        gisin = 2.0 * math.sqrt(1.0 + result.d ** 2)
    return DetectionReport(
        d_max=float(result.d),
        bound_violated=bound_violated,
        ppt_negative=ppt_negative,
        min_pt_eigenvalue=min_eig,
        gisin_bmax=gisin,
        theorem_class=theorem_class,
        classification=classification,
    )


def gisin_bmax(state):
    """Largest CHSH value reachable with local filters on a pure state.

    For a pure two-qubit state this equals 2 sqrt(1 + d_max^2), tying
    the maximal Bell violation to the maximized shift.  Mixed or
    non-qubit input is outside the relation's domain and raises
    NotAStateError / DimensionError.
    """
    if state.dims != (2, 2):
        raise DimensionError(f"gisin_bmax needs a two-qubit state, got dims {state.dims}")
    purity = state.purity()
    if abs(purity - 1.0) > 1e-9:
        raise NotAStateError(
            f"gisin_bmax needs a pure state, got purity {purity:.12g}"
        )
    return 2.0 * math.sqrt(1.0 + d_max(state).d ** 2)
