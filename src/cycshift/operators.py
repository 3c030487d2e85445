"""Dense complex-matrix substrate for bipartite operator work.

Generator bases of SU(N) (generalized Gell-Mann matrices), Kronecker
products and partial traces, together with the Pauli combination
``v . sigma`` and the unitarity check the rest of the package leans on.
All matrices are plain numpy arrays with ``dtype=complex``.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError

DEFAULT_TOL = 1e-10

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli(v):
    # v . sigma for a real 3-vector, or for each of a stack of them
    v = np.asarray(v, dtype=float)
    x, y, z = v if v.ndim == 1 else np.moveaxis(v, -1, 0)[..., None, None]
    return x * SIGMA_1 + y * SIGMA_2 + z * SIGMA_3


def _frozen(a):
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def is_unitary(m, tol=DEFAULT_TOL):
    """True when ``m``'s conjugate transpose is its inverse within ``tol``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= tol


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Ordered traceless Hermitian generator basis of SU(dim).

    The ``dim**2 - 1`` matrices satisfy Tr(g_i) = 0 and
    Tr(g_i g_j) = 2 delta_ij.  Ordering: symmetric off-diagonal pairs,
    then antisymmetric off-diagonal pairs, then diagonal generators,
    each group in lexicographic index order.  For dim = 2 this is
    exactly (sigma_1, sigma_2, sigma_3).
    """

    dim: int
    matrices: tuple

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    @cached_property
    def stack(self):
        """The generators as one read-only array of shape (dim**2 - 1, dim, dim)."""
        out = np.stack(self.matrices)
        out.setflags(write=False)
        return out


@lru_cache(maxsize=None)
def gell_mann_basis(dim):
    """Build the generalized Gell-Mann basis of SU(dim).

    Parameters
    ----------
    dim : int
        Subsystem dimension, at least 2.

    Returns
    -------
    GeneratorBasis
        The ``dim**2 - 1`` generators in the canonical order described
        on :class:`GeneratorBasis`.
    """
    if dim < 2:
        raise DimensionError(f"generator basis needs dim >= 2, got {dim}")
    mats = []
    # Symmetric off-diagonal: |j><k| + |k><j| for j < k.
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    # Antisymmetric off-diagonal: -i|j><k| + i|k><j| for j < k.
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    # Diagonal: sqrt(2/(l(l+1))) * (sum_{m<l} |m><m| - l|l><l|).
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return GeneratorBasis(dim=dim, matrices=tuple(_frozen(m) for m in mats))


def tensor(a, b):
    """Kronecker product of two square operators, A acting first."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise DimensionError("tensor expects two square matrices")
    return np.kron(a, b)


def partial_trace(rho, dims, keep):
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    rho : array_like
        Operator on the composite space, shape (dA*dB, dA*dB), or a stack
        of them with leading axes.
    dims : tuple of int
        Subsystem dimensions (dA, dB).
    keep : {'A', 'B'}
        Which subsystem the result acts on.

    Returns
    -------
    numpy.ndarray
        The reduced operator, shape (dA, dA) or (dB, dB), after the same
        leading axes.
    """
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if da < 1 or db < 1:
        raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
    if rho.ndim < 2 or rho.shape[-2:] != (da * db, da * db):
        raise DimensionError(
            f"operator shape {rho.shape} does not match dims ({da}, {db})"
        )
    r = rho.reshape(*rho.shape[:-2], da, db, da, db)
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abad->...bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
