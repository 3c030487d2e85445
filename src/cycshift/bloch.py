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
        if not np.isfinite(rho).all():
            raise NotAStateError("matrix has non-finite entries")
        herm_defect = np.abs(rho - rho.conj().T).max()
        # NaN-safe: a NaN tolerance fails every state
        if not herm_defect <= tol_herm:
            raise NotAStateError(
                f"matrix is not Hermitian (max defect {herm_defect:.3e})"
            )
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotAStateError(f"trace is {tr:.12g}, expected 1")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if not w.min() >= -tol_psd:
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
    """Coefficients (r_a, r_b, beta) of a state in bases basis_a, basis_b (None: Gell-Mann)."""

    r_a: np.ndarray
    r_b: np.ndarray
    beta: np.ndarray
    dim_a: int
    dim_b: int
    basis_a: object = None
    basis_b: object = None

    @property
    def beta_norm(self):
        """Frobenius norm of the correlation matrix."""
        return float(np.linalg.norm(self.beta))

    def bases(self):
        """(basis_a, basis_b), with the Gell-Mann basis where None is recorded."""
        return (gell_mann_basis(self.dim_a) if self.basis_a is None else self.basis_a,
                gell_mann_basis(self.dim_b) if self.basis_b is None else self.basis_b)


def _coeff_r(n):
    # r_i = _coeff_r(n) * Tr(rho_reduced g_i)
    return np.sqrt(n / (2.0 * (n - 1)))


def _coeff_beta(na, nb):
    # beta_ij = _coeff_beta(na, nb) * Tr(rho g_i (x) g_j)
    return np.sqrt(na * nb / (4.0 * (na - 1) * (nb - 1)))


@dataclass(frozen=True, eq=False)
class _BetaTerms:
    """Nonzero entries of every product g_i (x) g_j, sorted by (pair, k, l).

    ``pair`` is the flat index i * len(basis_b) + j, ``source`` the flat
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


def _build_beta_terms(stack_a, stack_b):
    # Every nonzero of an A-side generator times every nonzero of a B-side
    # one, the entry ga[p, q] * gb[r, s] of ga (x) gb at (p nb + r, q nb + s).
    nb = stack_b.shape[1]
    n = stack_a.shape[1] * nb
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


@lru_cache(maxsize=None)
def _gell_mann_beta_terms(na, nb):
    return _build_beta_terms(gell_mann_basis(na).stack, gell_mann_basis(nb).stack)


def _beta_terms(basis_a, basis_b):
    # Term tables of the two bases; only the canonical ones are cached.
    if basis_a is gell_mann_basis(basis_a.dim) and basis_b is gell_mann_basis(basis_b.dim):
        return _gell_mann_beta_terms(basis_a.dim, basis_b.dim)
    return _build_beta_terms(basis_a.stack, basis_b.stack)


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


def _correlation_matrices(rho, basis_a, basis_b):
    # beta of a density matrix, or of each matrix of a stack: each term
    # value * rho[..., l, k] is added into its (i, j) in table order.
    terms = _beta_terms(basis_a, basis_b)
    lead = rho.shape[:-2]
    flat = rho.reshape(-1, rho.shape[-1] ** 2)
    count = len(flat)
    index = terms.pair
    if count != 1:
        # a block of terms.size outputs per matrix of the stack
        index = (index + terms.size * np.arange(count)[:, None]).ravel()
    prod = (terms.value * flat.take(terms.source, axis=1)).real
    beta = np.bincount(index, prod.ravel(), terms.size * count)
    return _coeff_beta(basis_a.dim, basis_b.dim) * beta.reshape(lead + terms.shape)


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
    beta = _correlation_matrices(state.rho, basis_a, basis_b)
    r_a.setflags(write=False)
    r_b.setflags(write=False)
    beta.setflags(write=False)
    return BlochForm(r_a, r_b, beta, na, nb, basis_a, basis_b)


def reconstruct(form, *, tol_psd=1e-10):
    """Rebuild the density matrix from a Bloch form, in the form's bases.

    Raises NotAStateError when the coefficients do not describe a
    positive semidefinite unit-trace matrix.
    """
    na, nb = form.dim_a, form.dim_b
    basis_a, basis_b = form.bases()
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
    terms = _beta_terms(basis_a, basis_b)
    corr = np.zeros(n * n, dtype=complex)
    np.add.at(corr, terms.target, beta.ravel()[terms.pair] * terms.value)
    rho += ca * cb * corr.reshape(n, n)
    rho /= float(n)
    return BipartiteState(rho, (na, nb), tol_psd=tol_psd)
