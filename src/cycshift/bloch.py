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
# Default entrywise Hermiticity tolerance and eigenvalue floor of state validation
TOL_HERM = 1e-10
TOL_PSD = 1e-10


def _named(message, first_index, row):
    # A block's error message, naming row first_index + row when first_index is given
    return message if first_index is None else f"row {first_index + row}: {message}"


def _state_fault(rhos, tol_herm, tol_psd):
    """The message of the first state check that a stack fails, or None.

    The checks, in order: finite entries; Hermitian within ``tol_herm``;
    unit trace within TRACE_TOL; eigenvalues of the Hermitian part at
    least ``-tol_psd``.  Each reduces over the whole stack, so the stack
    passes only if every matrix does.  The comparisons are NaN-safe: a
    NaN tolerance fails every state.
    """
    if not np.isfinite(rhos).all():
        return "matrix has non-finite entries"
    adjoint = rhos.conj().swapaxes(-1, -2)
    herm_defect = np.abs(rhos - adjoint).max()
    if not herm_defect <= tol_herm:
        return f"matrix is not Hermitian (max defect {herm_defect:.3e})"
    tr = rhos.trace(axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > TRACE_TOL:
        return f"trace is {tr[off.argmax()]:.12g}, expected 1"
    w = np.linalg.eigvalsh((rhos + adjoint) / 2.0).min()
    if not w >= -tol_psd:
        return f"matrix is not positive semidefinite (min eigenvalue {w:.3e})"
    return None


def _validate_states(rhos, *, tol_herm=TOL_HERM, tol_psd=TOL_PSD, first_index=None):
    """Check each matrix of an (N, n, n) stack as a density matrix.

    Raises NotAStateError with ``BipartiteState``'s checks, tolerances and
    messages.  The stack is checked as a whole; only when it fails is the
    lowest failing row looked for, and its first failed check is named
    ``row first_index + i`` when ``first_index`` is given.
    """
    message = _state_fault(rhos, tol_herm, tol_psd)
    if message is None:
        return
    if first_index is not None:
        for k in range(len(rhos)):
            message = _state_fault(rhos[k:k + 1], tol_herm, tol_psd)
            if message is not None:
                message = _named(message, first_index, k)
                break
    raise NotAStateError(message)


def _sq_norms(x):
    """Squared norm along the last axis of a real stack, as np.linalg.norm takes it.

    np.linalg.norm sums the squares with a BLAS ddot, which may use fused
    multiply-adds; einsum, sum and an explicit x0**2 + x1**2 then differ
    from it in the last bit.  A stacked (1, k) @ (k, 1) matmul hands each
    row to the same ddot, with the same strides, so it agrees bit for bit.
    """
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _purities(rhos):
    # Tr rho^2 of each matrix of a stack: np.vdot of each flattened matrix
    # with itself, bit for bit, as one stacked (1, n^2) @ (n^2, 1) matmul
    flat = rhos.reshape(len(rhos), 1, -1)
    return (flat.conj() @ flat.swapaxes(-1, -2))[:, 0, 0].real


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

    def __init__(self, rho, dims, *, tol_herm=TOL_HERM, tol_psd=TOL_PSD):
        da, db = (int(d) for d in dims)
        if da < 2 or db < 2:
            raise DimensionError(f"subsystem dimensions must be >= 2, got {dims}")
        rho = np.asarray(rho, dtype=complex)
        n = da * db
        if rho.shape != (n, n):
            raise DimensionError(
                f"density matrix shape {rho.shape} does not match dims ({da}, {db})"
            )
        _validate_states(rho[None], tol_herm=tol_herm, tol_psd=tol_psd)
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
        return float(_purities(self._rho[None])[0])

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
    """Coefficients (r_a, r_b, beta) of a state in the Gell-Mann bases."""

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


@dataclass(frozen=True, eq=False)
class _BetaTerms:
    """Nonzero entries of every Gell-Mann product g_i (x) g_j, sorted by (pair, k, l).

    ``pair`` is the flat index i * (nb^2 - 1) + j, ``source`` the flat
    index of rho[l, k], ``target`` that of entry (k, l), and ``value`` the
    product entry.  For a fixed pair the terms run in C order over (k, l),
    and for a fixed (k, l) in C order over (i, j).  Adding them one after
    another in table order therefore gives, bit for bit, what the dense
    contractions einsum("ijkl,...lk->...ij") and einsum("ij,ijkl->kl")
    over the stack of every g_i (x) g_j give, without that stack's
    (na^2-1)(nb^2-1)(na nb)^2 entries.
    """

    shape: tuple
    pair: np.ndarray
    source: np.ndarray
    target: np.ndarray
    value: np.ndarray

    @property
    def size(self):
        return self.shape[0] * self.shape[1]


@lru_cache(maxsize=None)
def _gell_mann_beta_terms(na, nb):
    # Every nonzero of an A-side generator times every nonzero of a B-side
    # one, the entry ga[p, q] * gb[r, s] of ga (x) gb at (p nb + r, q nb + s).
    stack_a, stack_b = gell_mann_basis(na).stack, gell_mann_basis(nb).stack
    n = na * nb
    ia, pa, qa = np.nonzero(stack_a)
    ib, pb, qb = np.nonzero(stack_b)
    pair = (ia[:, None] * len(stack_b) + ib).ravel()
    k = (pa[:, None] * nb + pb).ravel()
    l = (qa[:, None] * nb + qb).ravel()
    value = (stack_a[ia, pa, qa][:, None] * stack_b[ib, pb, qb]).ravel()
    order = np.lexsort((l, k, pair))
    pair, k, l, value = pair[order], k[order], l[order], value[order]
    tables = (pair, l * n + k, k * n + l, value)
    for table in tables:
        table.setflags(write=False)
    return _BetaTerms((len(stack_a), len(stack_b)), *tables)


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
    # beta of a density matrix, or of each matrix of a stack: each term
    # value * rho[..., l, k] is added into its (i, j) in table order.
    terms = _gell_mann_beta_terms(*dims)
    lead = rho.shape[:-2]
    flat = rho.reshape(-1, rho.shape[-1] ** 2)
    count = len(flat)
    index = terms.pair
    if count != 1:
        # a block of terms.size outputs per matrix of the stack
        index = (index + terms.size * np.arange(count)[:, None]).ravel()
    prod = (terms.value * flat.take(terms.source, axis=1)).real
    beta = np.bincount(index, prod.ravel(), terms.size * count)
    return _coeff_beta(*dims) * beta.reshape(lead + terms.shape)


def decompose(state):
    """The Bloch form of a bipartite state, in the Gell-Mann bases of its dims.

    The maximal shift does not depend on the choice of generator basis, so
    every form is written in the one canonical set.
    """
    na, nb = state.dims
    r_a = _bloch_vectors(state.rho_a, gell_mann_basis(na))
    r_b = _bloch_vectors(state.rho_b, gell_mann_basis(nb))
    beta = _correlation_matrices(state.rho, state.dims)
    r_a.setflags(write=False)
    r_b.setflags(write=False)
    beta.setflags(write=False)
    return BlochForm(r_a, r_b, beta, na, nb)


def reconstruct(form, *, tol_psd=TOL_PSD):
    """Rebuild the density matrix from a Bloch form in the Gell-Mann bases.

    Raises NotAStateError when the coefficients do not describe a
    positive semidefinite unit-trace matrix.
    """
    na, nb = form.dim_a, form.dim_b
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
    for i, ga in enumerate(gell_mann_basis(na)):
        if r_a[i] != 0.0:
            rho += ca * r_a[i] * tensor(ga, eye_b)
    for j, gb in enumerate(gell_mann_basis(nb)):
        if r_b[j] != 0.0:
            rho += cb * r_b[j] * tensor(eye_a, gb)
    terms = _gell_mann_beta_terms(na, nb)
    corr = np.zeros(n * n, dtype=complex)
    np.add.at(corr, terms.target, beta.ravel()[terms.pair] * terms.value)
    rho += ca * cb * corr.reshape(n, n)
    rho /= float(n)
    return BipartiteState(rho, (na, nb), tol_psd=tol_psd)
