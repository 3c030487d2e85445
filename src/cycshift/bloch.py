"""Bipartite states and their generator-basis (Bloch) decomposition.

A state on C^(NA*NB) is written as

    rho = (1/(NA*NB)) [ I (x) I
                        + cA * sum_i rA_i g_i (x) I
                        + cB * sum_j rB_j I (x) g_j
                        + cAB * sum_ij beta_ij g_i (x) g_j ]

with cA = sqrt(NA(NA-1)/2), cB = sqrt(NB(NB-1)/2), cAB = cA*cB and g the
generalized Gell-Mann generators.  Under this normalization a pure
reduced state has |r| = 1 in any dimension, and for qubits r and beta
are the plain Pauli expectation values.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, NotAStateError
from .operators import gell_mann_basis, partial_trace, tensor

TRACE_TOL = 1e-10


class BipartiteState:
    """Validated density matrix on a two-part Hilbert space.

    Parameters
    ----------
    rho : array_like
        Density matrix, shape (dim_a*dim_b, dim_a*dim_b).
    dims : tuple of int
        Subsystem dimensions (dim_a, dim_b), each at least 2.
    tol_herm, tol_psd : float
        Entrywise Hermiticity tolerance and eigenvalue floor used during
        validation.

    The stored matrix is a read-only copy; instances are safe to share.
    """

    def __init__(self, rho, dims, *, tol_herm=1e-10, tol_psd=1e-10):
        da, db = (int(d) for d in dims)
        if da < 2 or db < 2:
            raise DimensionError(f"subsystem dimensions must be >= 2, got {dims}")
        rho = np.asarray(rho, dtype=complex)
        n = da * db
        if rho.shape != (n, n):
            raise DimensionError(
                f"density matrix shape {rho.shape} does not match dims ({da}, {db})"
            )
        herm_defect = np.abs(rho - rho.conj().T).max()
        if herm_defect > tol_herm:
            raise NotAStateError(
                f"matrix is not Hermitian (max defect {herm_defect:.3e})"
            )
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotAStateError(f"trace is {tr:.12g}, expected 1")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if w.min() < -tol_psd:
            raise NotAStateError(
                f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})"
            )
        mat = rho.copy()
        mat.setflags(write=False)
        self._rho = mat
        self.dim_a = da
        self.dim_b = db

    @property
    def rho(self):
        return self._rho

    @property
    def dims(self):
        return (self.dim_a, self.dim_b)

    @property
    def dim(self):
        return self.dim_a * self.dim_b

    @cached_property
    def rho_a(self):
        """Reduced density matrix of subsystem A."""
        out = partial_trace(self._rho, self.dims, "A")
        out.setflags(write=False)
        return out

    @cached_property
    def rho_b(self):
        """Reduced density matrix of subsystem B."""
        out = partial_trace(self._rho, self.dims, "B")
        out.setflags(write=False)
        return out

    def purity(self):
        return float(np.vdot(self._rho, self._rho).real)

    @cached_property
    def state_id(self):
        """Content hash usable as a stable identifier."""
        h = hashlib.sha1()
        h.update(np.array(self.dims, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self._rho).tobytes())
        return h.hexdigest()[:16]

    def __repr__(self):
        return f"BipartiteState(dims=({self.dim_a}, {self.dim_b}), id={self.state_id})"


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Generator-basis coefficients (r_a, r_b, beta) of a bipartite state."""

    r_a: np.ndarray
    r_b: np.ndarray
    beta: np.ndarray
    dim_a: int
    dim_b: int

    @property
    def beta_norm(self):
        """Frobenius norm of the correlation matrix."""
        return float(np.linalg.norm(self.beta))


def _coeff_r(n):
    # r_i = _coeff_r(n) * Tr(rho_reduced g_i)
    return np.sqrt(n / (2.0 * (n - 1)))


def _coeff_beta(na, nb):
    # beta_ij = _coeff_beta(na, nb) * Tr(rho g_i (x) g_j)
    return np.sqrt(na * nb / (4.0 * (na - 1) * (nb - 1)))


@lru_cache(maxsize=None)
def _pair_stack(na, nb):
    """Array of g_i (x) g_j products, shape (na^2-1, nb^2-1, na*nb, na*nb)."""
    ba = gell_mann_basis(na)
    bb = gell_mann_basis(nb)
    n = na * nb
    out = np.empty((len(ba), len(bb), n, n), dtype=complex)
    for i, ga in enumerate(ba):
        for j, gb in enumerate(bb):
            out[i, j] = tensor(ga, gb)
    out.setflags(write=False)
    return out


def bloch_vector(rho_reduced, basis):
    """Bloch vector of a single-subsystem density matrix in ``basis``."""
    rho_reduced = np.asarray(rho_reduced, dtype=complex)
    n = basis.dim
    if rho_reduced.shape != (n, n):
        raise DimensionError(
            f"reduced matrix shape {rho_reduced.shape} does not match basis dim {n}"
        )
    return _bloch_vectors(rho_reduced, basis)


def _bloch_vectors(rho_reduced, basis):
    # Bloch vector of a reduced matrix, or of each matrix of a stack.
    return _coeff_r(basis.dim) * np.einsum("...ij,kji->...k", rho_reduced, basis.stack).real


def _correlation_matrices(rho, dims):
    # beta of a density matrix, or of each matrix of a stack.
    na, nb = dims
    return _coeff_beta(na, nb) * np.einsum("ijkl,...lk->...ij", _pair_stack(na, nb), rho).real


def decompose(state, basis_a=None, basis_b=None):
    """Extract the Bloch form of a bipartite state.

    Parameters
    ----------
    state : BipartiteState
    basis_a, basis_b : GeneratorBasis, optional
        Generator bases for the two subsystems.  Default to the
        canonical Gell-Mann bases of the state's dimensions.

    Returns
    -------
    BlochForm
    """
    na, nb = state.dims
    basis_a = gell_mann_basis(na) if basis_a is None else basis_a
    basis_b = gell_mann_basis(nb) if basis_b is None else basis_b
    if basis_a.dim != na or basis_b.dim != nb:
        raise DimensionError(
            f"basis dims ({basis_a.dim}, {basis_b.dim}) do not match state dims {state.dims}"
        )
    r_a = bloch_vector(state.rho_a, basis_a)
    r_b = bloch_vector(state.rho_b, basis_b)
    beta = _correlation_matrices(state.rho, state.dims)
    r_a.setflags(write=False)
    r_b.setflags(write=False)
    beta.setflags(write=False)
    return BlochForm(r_a=r_a, r_b=r_b, beta=beta, dim_a=na, dim_b=nb)


def reconstruct(form, *, tol_psd=1e-10):
    """Rebuild the density matrix from a Bloch form.

    Raises NotAStateError when the coefficients do not describe a
    positive semidefinite unit-trace matrix.
    """
    na, nb = form.dim_a, form.dim_b
    basis_a = gell_mann_basis(na)
    basis_b = gell_mann_basis(nb)
    r_a = np.asarray(form.r_a, dtype=float)
    r_b = np.asarray(form.r_b, dtype=float)
    beta = np.asarray(form.beta, dtype=float)
    if r_a.shape != (na * na - 1,) or r_b.shape != (nb * nb - 1,):
        raise DimensionError("Bloch vector length does not match declared dims")
    if beta.shape != (na * na - 1, nb * nb - 1):
        raise DimensionError("correlation matrix shape does not match declared dims")
    ca = np.sqrt(na * (na - 1) / 2.0)
    cb = np.sqrt(nb * (nb - 1) / 2.0)
    n = na * nb
    rho = np.eye(n, dtype=complex)
    eye_a = np.eye(na, dtype=complex)
    eye_b = np.eye(nb, dtype=complex)
    for i, ga in enumerate(basis_a):
        if r_a[i] != 0.0:
            rho += ca * r_a[i] * tensor(ga, eye_b)
    for j, gb in enumerate(basis_b):
        if r_b[j] != 0.0:
            rho += cb * r_b[j] * tensor(eye_a, gb)
    rho += ca * cb * np.einsum("ij,ijkl->kl", beta, _pair_stack(na, nb))
    rho /= float(n)
    return BipartiteState(rho, (na, nb), tol_psd=tol_psd)


def reduced_bloch(state):
    """Bloch vectors (r_a, r_b) of the two reduced states."""
    r_a = bloch_vector(state.rho_a, gell_mann_basis(state.dim_a))
    r_b = bloch_vector(state.rho_b, gell_mann_basis(state.dim_b))
    return r_a, r_b
