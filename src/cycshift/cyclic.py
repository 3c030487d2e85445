"""Local cyclic operations and the state shift they induce.

A unitary acting on subsystem B that commutes with the reduced state
rho_B leaves both marginals fixed while possibly moving the joint state.
This module builds such unitaries from the eigenspace structure of
rho_B, evaluates the induced shift

    d = sqrt( Tr(rho^2) - Tr(rho rho_f) ),   rho_f = (I (x) U) rho (I (x) U)^dag

through two independent routes (the direct trace form above and an
equivalent contraction of the correlation matrix), and maximizes d over
the commutant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BipartiteState, _bloch_vectors, _correlation_matrices, bloch_vector
from .errors import (
    ConsistencyError,
    DimensionError,
    MergedLevelsError,
    NotCyclicError,
    OperatorError,
)
from .operators import _pauli, gell_mann_basis, is_unitary, partial_trace

EPS_DEGENERATE = 1e-9
TOL_CYCLIC = 1e-9
DEFAULT_RESTARTS = 16  # starts of the generic optimizer
# The radicand Tr(rho^2) - Tr(rho rho_f) lies in [0, 1] for a density
# matrix.  Values outside that range by no more than these margins are
# rounding noise and clamped; anything further raises ConsistencyError.
RADICAND_FLOOR = -1e-12
RADICAND_CEILING = 1.0 + 1e-12
CROSS_CHECK_TOL = 1e-9
# The phase family counts as flat when its largest radicand is below
# this multiple of float epsilon (times max(1, Tr beta^T beta) on a qubit
# B side, max(1, sum J) on a qutrit one).
_FLAT_PHASE_FAMILY = 64.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class CommutantStructure:
    """Eigenspace structure of a reduced state.

    ``blocks`` holds one entry per (merged) eigenspace as a pair of the
    representative eigenvalue and the tuple of eigenvector column
    indices into ``basis``.  Eigenvalues are ascending.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    blocks: tuple

    @property
    def block_sizes(self):
        return tuple(len(idx) for _, idx in self.blocks)


@dataclass(frozen=True, eq=False)
class CyclicUnitary:
    """A unitary on subsystem B commuting with a reference reduced state."""

    matrix: np.ndarray
    structure: CommutantStructure
    block_unitaries: tuple

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ShiftResult:
    """Outcome of a shift maximization.

    ``d`` is the ``formula`` route ("direct" or "correlation") evaluated
    at ``unitary``, whatever the method; ``cross_check_residual`` is the
    disagreement between the two routes there.  ``certified`` is
    True for the closed forms, and for the generic optimizer when its
    best restart met the stationarity test within its iteration budget.
    ``nfev`` counts the generic optimizer's gradient evaluations over all
    restarts, and ``restart_spread`` is the largest minus the smallest
    ``d`` reached by its restarts; both are 0 for the closed forms.
    """

    d: float
    formula: str
    method: str
    unitary: CyclicUnitary
    cross_check_residual: float
    restarts: int
    certified: bool
    params: dict
    nfev: int = 0
    restart_spread: float = 0.0


def commutant_basis(state, eps_deg=EPS_DEGENERATE):
    """Eigenspace structure of the state's B-side reduced matrix.

    Consecutive eigenvalues closer than ``eps_deg * max(1, lambda_max)``
    are merged into one degenerate block.  The commutant of rho_B is
    exactly the set of block unitaries in this eigenbasis.
    """
    w, v = np.linalg.eigh(state.rho_b)
    return _structure(w, v, _level_splits(w, eps_deg))


def _level_splits(w, eps_deg):
    """Entry i tells whether ascending levels i and i+1 (last axis) stay apart.

    Levels merge when their gap is below ``eps_deg * max(1, |lambda|max)``.
    """
    _check_positive_finite("eps_deg", eps_deg)
    threshold = eps_deg * np.maximum(1.0, np.abs(w).max(axis=-1))
    return w[..., 1:] - w[..., :-1] >= threshold[..., None]


def _check_positive_finite(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _structure(w, v, splits):
    # The CommutantStructure of eigenvalues w (ascending) and eigenvectors
    # v, with a block boundary after each level i where splits[i] holds.
    bounds = [0, *(i + 1 for i, split in enumerate(splits.tolist()) if split), len(w)]
    blocks = tuple((float(w[start:stop].mean()), tuple(range(start, stop)))
                   for start, stop in zip(bounds, bounds[1:]))
    w.setflags(write=False)
    v.setflags(write=False)
    return CommutantStructure(eigenvalues=w, basis=v, blocks=blocks)


def make_cyclic(state, block_unitaries, *, structure=None, tol_unitary=1e-10,
                eps_deg=EPS_DEGENERATE):
    """Assemble a cyclic unitary from per-eigenspace blocks.

    Parameters
    ----------
    state : BipartiteState
        The state whose rho_B the result must commute with.
    block_unitaries : sequence of array_like
        One unitary per block of ``commutant_basis(state)``, in
        ascending-eigenvalue order, each of the block's size.

    Returns
    -------
    CyclicUnitary
    """
    if structure is None:
        structure = commutant_basis(state, eps_deg)
    blocks = structure.blocks
    if len(block_unitaries) != len(blocks):
        raise DimensionError(
            f"expected {len(blocks)} block unitaries, got {len(block_unitaries)}"
        )
    v = structure.basis
    b = np.zeros(v.shape, dtype=complex)
    mats = []
    for (_, idx), wk in zip(blocks, block_unitaries):
        wk = np.asarray(wk, dtype=complex)
        s = len(idx)
        if wk.shape != (s, s):
            raise DimensionError(
                f"block of size {s} got unitary of shape {wk.shape}"
            )
        if not is_unitary(wk, tol_unitary):
            raise OperatorError("block matrix is not unitary within tolerance")
        b[np.ix_(idx, idx)] = wk
        mats.append(wk)
    return CyclicUnitary(
        matrix=v @ b @ v.conj().T,
        structure=structure,
        block_unitaries=tuple(mats),
    )


def cyclic_from_matrix(state, u, *, tol_unitary=1e-10, tol_cyclic=TOL_CYCLIC,
                       eps_deg=EPS_DEGENERATE):
    """Wrap an explicit B-side unitary after verifying it is cyclic.

    The matrix must be unitary, commute with rho_B entrywise within
    ``tol_cyclic``, and be block diagonal in the eigenbasis of rho_B.
    A matrix that passes the commutator test but leaks between nearly
    degenerate unmerged eigenspaces is rejected.
    """
    u = np.asarray(u, dtype=complex)
    nb = state.dim_b
    if u.shape != (nb, nb):
        raise DimensionError(f"unitary shape {u.shape} does not match dim {nb}")
    structure = commutant_basis(state, eps_deg)
    checks = _RowChecks()
    _, in_eig = _check_cyclic(u[None], state.rho_b, structure.basis,
                              _same_block(_level_splits(structure.eigenvalues, eps_deg)),
                              tol_unitary, tol_cyclic, checks)
    checks.raise_first()
    return CyclicUnitary(matrix=u, structure=structure,
                         block_unitaries=_blocks(in_eig[0], structure))


def phase_cyclic(state, phi, axis=None, **kwargs):
    """Relative-phase cyclic unitary exp(i phi/2 u.sigma) for a qubit B.

    ``axis`` may be one of 'x', 'y', 'z', a 3-vector, or None to use the
    Bloch axis of rho_B (falling back to z when rho_B is maximally
    mixed).  Raises NotCyclicError when the axis is incompatible with a
    nondegenerate rho_B.
    """
    if state.dim_b != 2:
        raise DimensionError("phase_cyclic needs a qubit B subsystem")
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if axis is None:
        r_b = bloch_vector(state.rho_b, gell_mann_basis(2))
        nrm = np.linalg.norm(r_b)
        u_vec = r_b / nrm if nrm > 1e-9 else np.array(named["z"])
    elif isinstance(axis, str):
        if axis not in named:
            raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
        u_vec = np.array(named[axis])
    else:
        u_vec = np.asarray(axis, dtype=float)
        if u_vec.shape != (3,) or np.linalg.norm(u_vec) == 0.0:
            raise ValueError("axis must be a nonzero 3-vector")
        u_vec = u_vec / np.linalg.norm(u_vec)
    u = (math.cos(phi / 2.0) * np.eye(2, dtype=complex)
         + 1j * math.sin(phi / 2.0) * _pauli(u_vec))
    return cyclic_from_matrix(state, u, **kwargs)


class _RowChecks:
    """The first failed check of each row of a batch.

    Checks are recorded in the order the single-state computation makes
    them, so each row keeps its first failure.  ``raise_first`` raises
    the failure of the lowest row, named ``row first_index + i`` when
    the batch has a ``first_index``.
    """

    def __init__(self, first_index=None):
        self.first_index = first_index
        self.failures = {}

    def fail(self, bad, error, message):
        if not np.count_nonzero(bad):  # the common case, and cheap to test
            return
        for k in np.flatnonzero(bad):
            self.failures.setdefault(int(k), (error, message(k)))

    def raise_first(self):
        if not self.failures:
            return
        row = min(self.failures)
        error, text = self.failures[row]
        if self.first_index is not None:
            text = f"row {self.first_index + row}: {text}"
        raise error(text)


def _shifts_from_radicands(radicands, checks):
    checks.fail(radicands < RADICAND_FLOOR, ConsistencyError, lambda k: (
        f"shift radicand {radicands[k]:.3e} is negative beyond rounding tolerance"))
    checks.fail(radicands > RADICAND_CEILING, ConsistencyError, lambda k: (
        f"shift radicand {float(radicands[k])!r} exceeds 1 beyond rounding tolerance"))
    return np.minimum(np.sqrt(np.maximum(radicands, 0.0)), 1.0)


def _shift_from_radicand(radicand):
    checks = _RowChecks()
    d = _shifts_from_radicands(np.array([radicand], dtype=float), checks)
    checks.raise_first()
    return float(d[0])


def _check_commutes(rho_b, u, tol_cyclic, checks):
    # The largest entry of [rho_B, U] for each U of a stack.
    comm = np.abs(rho_b @ u - u @ rho_b).max(axis=(-2, -1))
    checks.fail(~(comm <= tol_cyclic), NotCyclicError, lambda k: (
        f"commutator with rho_B is {comm[k]:.3e}, above tolerance {tol_cyclic:.1e}"))
    return comm


def _same_block(splits):
    # Entry (i, j) tells whether levels i and j share a block, from
    # _level_splits along the last axis.
    labels = np.zeros(splits.shape[:-1] + (splits.shape[-1] + 1,), dtype=int)
    labels[..., 1:] = np.cumsum(splits, axis=-1)
    return labels[..., :, None] == labels[..., None, :]


def _check_cyclic(u, rho_b, basis, same_block, tol_unitary, tol_cyclic, checks):
    """Check each U of a stack as a cyclic unitary.

    U must be unitary within ``tol_unitary``, commute with rho_B within
    ``tol_cyclic``, and be block diagonal in the eigenbasis ``basis`` of
    rho_B, whose blocks ``same_block`` marks: a matrix that passes the
    commutator test but has entries above 1e-10 between nearly
    degenerate unmerged eigenspaces fails.  Returns the largest entry of
    each commutator [rho_B, U] and each U in the eigenbasis.
    """
    defect = np.abs(u @ _adjoint(u) - np.eye(u.shape[-1])).max(axis=(-2, -1))
    checks.fail(~(defect <= tol_unitary), OperatorError,
                lambda k: "matrix is not unitary within tolerance")
    comm = _check_commutes(rho_b, u, tol_cyclic, checks)
    in_eig = _adjoint(basis) @ u @ basis
    leak = np.abs(np.where(same_block, 0.0, in_eig)).max(axis=(-2, -1))
    checks.fail(leak > 1e-10, NotCyclicError, lambda k: (
        "matrix couples nearly degenerate eigenspaces of rho_B "
        f"(off-block leakage {leak[k]:.3e})"))
    return comm, in_eig


def _blocks(in_eigenbasis, structure):
    # The diagonal blocks of a matrix in the eigenbasis of rho_B
    return tuple(in_eigenbasis[idx[0]:idx[-1] + 1, idx[0]:idx[-1] + 1]
                 for _, idx in structure.blocks)


def _adjoint(u):
    return u.conj().swapaxes(-1, -2)


def _unitary_of(u, dim):
    m = u.matrix if isinstance(u, CyclicUnitary) else np.asarray(u, dtype=complex)
    if m.shape != (dim, dim):
        raise DimensionError(f"unitary shape {m.shape} does not match dim {dim}")
    if not isinstance(u, CyclicUnitary) and not is_unitary(m):
        raise OperatorError("matrix is not unitary within tolerance")
    return m


def _conj_b(rho, u, dims):
    """(I (x) U) rho (I (x) U)^dag without forming the Kronecker product.

    rho is viewed as a (dA, dA) grid of (dB, dB) blocks, and each block
    is conjugated by U: O(dA^2 dB^3) work instead of O((dA dB)^3).
    ``rho`` and ``u`` may carry leading stack axes that broadcast.
    """
    na, nb = dims
    blocks = rho.reshape(*rho.shape[:-2], na, nb, na, nb).swapaxes(-3, -2)
    u = u[..., None, None, :, :]
    out = u @ blocks @ _adjoint(u)
    return out.swapaxes(-3, -2).reshape(*out.shape[:-4], na * nb, na * nb)


def apply_cyclic(state, u):
    """Final state (I (x) U) rho (I (x) U)^dag as a BipartiteState."""
    m = _unitary_of(u, state.dim_b)
    return BipartiteState(_conj_b(state.rho, m, state.dims), state.dims)


def _direct_radicands(rhos, u, dims):
    # shift_direct's half squared norm of rho - rho_f, for each unitary.
    diff = _conj_b(rhos, u, dims)
    np.subtract(rhos, diff, out=diff)
    diff = diff.reshape(*diff.shape[:-2], 1, -1)
    return 0.5 * (diff.conj() @ diff.swapaxes(-1, -2))[..., 0, 0].real


def shift_direct(state, u, *, tol_cyclic=TOL_CYCLIC):
    """Shift of the state under a cyclic unitary, from the trace form.

    d = sqrt(Tr(rho^2) - Tr(rho rho_f)), evaluated as the equivalent
    half squared Frobenius norm of rho - rho_f.  The difference form is
    a sum of squares, so it keeps absolute precision as d approaches
    zero, where the trace form loses everything to cancellation.

    Raises NotCyclicError when the unitary does not commute with this
    state's rho_B within ``tol_cyclic`` (the check is against the state
    passed here, whichever state the unitary was built for).
    """
    m = _unitary_of(u, state.dim_b)[None]
    checks = _RowChecks()
    _check_commutes(state.rho_b, m, tol_cyclic, checks)
    d = _shifts_from_radicands(_direct_radicands(state.rho[None], m, state.dims), checks)
    checks.raise_first()
    return float(d[0])


def conjugation_matrix(u, basis):
    """Expansion coefficients of conjugated generators.

    Returns the real matrix R with R[k, j] = Tr(g_k U g_j U^dag) / 2, so
    that U g_j U^dag = sum_k R[k, j] g_k.  R is orthogonal for any
    unitary U.
    """
    return _conjugation_matrices(_unitary_of(u, basis.dim)[None], basis.stack)[0]


def _conjugation_matrices(us, gs):
    conj = np.einsum("nab,jbc,ndc->njad", us, gs, us.conj())
    return 0.5 * np.einsum("kab,njba->nkj", gs, conj).real


def beta_final(form, u):
    """Correlation matrix after the cyclic map, from the rotation form.

    beta_f = beta R^T with R the conjugation matrix of U in the B-side
    Gell-Mann basis.  The Frobenius norm of beta is preserved; a
    violation beyond 1e-10 raises ConsistencyError.
    """
    r = conjugation_matrix(u, gell_mann_basis(form.dim_b))
    checks = _RowChecks()
    beta_f = _rotated_correlations(form.beta[None], r[None], checks)
    checks.raise_first()
    return beta_f[0]


def _rotated_correlations(beta, rot, checks):
    # beta R^T for each row, with the check that the norm of beta holds.
    beta_f = beta @ rot.swapaxes(-1, -2)
    drift = np.abs(np.sqrt((beta_f * beta_f).sum(axis=(-2, -1)))
                   - np.sqrt((beta * beta).sum(axis=(-2, -1))))
    checks.fail(drift > 1e-10, ConsistencyError, lambda k: (
        f"correlation norm drifted by {drift[k]:.3e} under a unitary conjugation"))
    return beta_f


def _reduced_from_bloch(r, basis):
    # The reduced matrix of a Bloch vector in basis, or of each of a stack.
    n = basis.dim
    cb = np.sqrt(n * (n - 1) / 2.0)
    return (np.eye(n) + cb * np.einsum("...j,jab->...ab", r, basis.stack)) / n


def _correlation_shifts(beta, r_b, u, dims, tol_cyclic, checks):
    # shift_correlation for each row: the commutator with rho_B rebuilt
    # from r_B, the norm of beta under the rotation, then the radicand's
    # floor and ceiling.
    na, nb = dims
    basis_b = gell_mann_basis(nb)
    _check_commutes(_reduced_from_bloch(r_b, basis_b), u, tol_cyclic, checks)
    beta_f = _rotated_correlations(beta, _conjugation_matrices(u, basis_b.stack), checks)
    pref = (na - 1) * (nb - 1) / (na * nb)
    diff = beta - beta_f
    return _shifts_from_radicands(pref * 0.5 * (diff * diff).sum(axis=(-2, -1)), checks)


def shift_correlation(form, u, *, tol_cyclic=TOL_CYCLIC):
    """Shift from the correlation-matrix contraction.

    d = sqrt( (NA-1)(NB-1)/(NA NB) * (|beta|^2 - sum_ij beta_ij beta_f_ij) ),
    evaluated as the equivalent half squared norm of beta - beta_f so
    the radicand stays exact as d approaches zero.  Agrees with
    shift_direct for every cyclic unitary.
    """
    m = _unitary_of(u, form.dim_b)
    checks = _RowChecks()
    d = _correlation_shifts(form.beta[None], form.r_b[None], m[None], (form.dim_a, form.dim_b),
                            tol_cyclic, checks)
    checks.raise_first()
    return float(d[0])


@dataclass(frozen=True, eq=False)
class _States:
    """A stack of states of one dims, with what the d_max methods read off them.

    ``rho_b``, ``r_b`` and ``beta`` are computed as ``decompose``
    computes them, in the Gell-Mann bases; ``levels`` and ``basis`` are
    the ascending eigenvalues and the eigenvectors of rho_B, and
    ``splits`` tells whether adjacent levels stay apart
    (``_level_splits``).
    """

    rho: np.ndarray
    dims: tuple
    rho_b: np.ndarray
    r_b: np.ndarray
    beta: np.ndarray
    levels: np.ndarray
    basis: np.ndarray
    splits: np.ndarray


def _states(rhos, dims, eps_deg):
    rho_b = partial_trace(rhos, dims, "B")
    levels, basis = np.linalg.eigh(rho_b)
    return _States(rhos, dims, rho_b, _bloch_vectors(rho_b, gell_mann_basis(dims[1])),
                   _correlation_matrices(rhos, dims), levels, basis, _level_splits(levels, eps_deg))


def _verify(states, unitary, formula, tol_cyclic, checks, anchor=None):
    """Shifts and cross-check residuals of each state under its B-side unitary.

    The shift of a row is its ``formula`` route ("direct" or
    "correlation") at the row's unitary, the one source of a d_max
    result's ``d``.  ``anchor`` holds the squared shifts of a method's
    own formula, when it has one.  Each row passes, in order: the checks
    of ``cyclic_from_matrix``; ``shift_direct``'s checks, whose
    commutator test is the one just made; those of ``shift_correlation``;
    the anchor's floor and ceiling; the cross-check of the two routes;
    and the check that the anchor matches the shift.  Returns the
    shifts, the residuals and each unitary in the eigenbasis of rho_B.
    Residuals compare squared shifts: the square root amplifies float
    noise without bound as d approaches zero, while the radicands agree
    to absolute precision everywhere.

    A large eps_deg can merge distinct levels of rho_B, and only a loose
    tol_cyclic lets through a unitary that mixes them.  When such a
    unitary fails the cross-check or the anchor check, that is a bad
    option, not a bug: MergedLevelsError instead of ConsistencyError.
    """
    comm, in_eig = _check_cyclic(unitary, states.rho_b, states.basis,
                                 _same_block(states.splits), 1e-10, tol_cyclic, checks)
    d_dir = _shifts_from_radicands(_direct_radicands(states.rho, unitary, states.dims), checks)
    d_cor = _correlation_shifts(states.beta, states.r_b, unitary, states.dims, tol_cyclic, checks)
    residual = np.abs(d_dir * d_dir - d_cor * d_cor)
    d = d_dir if formula == "direct" else d_cor
    d_anchor = d if anchor is None else _shifts_from_radicands(anchor, checks)
    loose = ~states.splits.all(axis=-1) & (comm > TOL_CYCLIC)

    def merged_levels(k):
        # the two adjacent levels of row k furthest apart that eps_deg merged
        levels = states.levels[k]
        low = np.where(states.splits[k], -np.inf, np.diff(levels)).argmax()
        return f"{levels[low]:.6g} and {levels[low + 1]:.6g}"

    def disagree(bad, message):
        if not np.count_nonzero(bad):
            return
        checks.fail(bad & loose, MergedLevelsError, lambda k: (
            f"{message(k)}: eps_deg merged the distinct rho_B levels {merged_levels(k)}, "
            f"and tol_cyclic {tol_cyclic:.1e} admitted a unitary that commutes with rho_B "
            f"only to {comm[k]:.3e}; lower --eps-deg or --tol-cyclic"))
        checks.fail(bad & ~loose, ConsistencyError, message)

    disagree(residual >= CROSS_CHECK_TOL, lambda k: (
        f"direct and correlation shifts disagree by {residual[k]:.3e} (squared) at the optimum"))
    disagree(np.abs(d_anchor * d_anchor - d * d) > 1e-10, lambda k: (
        f"optimized shift {d_anchor[k]:.12g} does not match its own formula "
        f"re-evaluation {d[k]:.12g}"))
    return d, residual, in_eig


def _finalize(states, structure, u, formula, method, tol_cyclic, anchor=None, **fields):
    """ShiftResult of the B-side unitary a d_max method found: the verifier's N=1 call."""
    checks = _RowChecks()
    d, residual, in_eig = _verify(states, u[None], formula, tol_cyclic, checks, anchor)
    checks.raise_first()
    unit = CyclicUnitary(matrix=u, structure=structure,
                         block_unitaries=_blocks(in_eig[0], structure))
    return ShiftResult(d=float(d[0]), formula=formula, method=method, unitary=unit,
                       cross_check_residual=float(residual[0]), **fields)


@dataclass(frozen=True, eq=False)
class _QubitBForms:
    """Row-wise outcome of ``_qubit_b_closed_forms``; arrays have N rows."""

    d: np.ndarray
    beta: np.ndarray
    merged: np.ndarray
    unitary: np.ndarray
    phi: np.ndarray
    axis: np.ndarray
    residual: np.ndarray


def _half_turns(states):
    # Both closed forms are the half turn U = exp(i pi/2 w.sigma) = i w.sigma.
    # Its conjugation rotates beta into beta (2 w w^T - I), so the squared
    # shift is 2 pref (Tr M - w^T M w) with M = beta^T beta, and only the
    # axis w differs.  With two levels the commutant is the phase family
    # about the Bloch axis u of rho_B, whose radicand pref (1 - cos phi)
    # (Tr M - u^T M u) peaks at phi = pi.  With merged levels every axis
    # is allowed, and the best one is the least eigenvector of M, where
    # Tr M - w^T M w is the sum of the two larger eigenvalues.  That spread
    # only decides the flat family; _verify evaluates d at U.
    # Returns the unitaries, phi and the axes.
    r_b, beta, basis = states.r_b, states.beta, states.basis
    merged = ~states.splits[:, 0]
    mmat = beta.transpose(0, 2, 1) @ beta
    # the Bloch axis of rho_B; merged rows take theirs from M below
    norms = np.sqrt((r_b[:, None, :] @ r_b[:, :, None])[:, 0, 0])
    axis = r_b / np.where(merged, 1.0, norms)[:, None]
    trace_m = np.einsum("nii->n", mmat)
    spread = trace_m - (axis[:, None, :] @ mmat @ axis[:, :, None])[:, 0, 0]
    if merged.any():
        evals, evecs = np.linalg.eigh(mmat[merged])
        axis[merged] = evecs[:, :, 0]
        spread[merged] = evals[:, 1] + evals[:, 2]
    # When the whole family moves the state by no more than float noise
    # (product states and rho = I/4, for two), report the identity
    # (radicand 0, phases 1) as the honest argmax.
    moving = 2.0 * spread > _FLAT_PHASE_FAMILY * np.maximum(1.0, trace_m)
    # On two-level rows U is built in the eigenbasis of rho_B, where it is
    # diag(-i, i) exactly: rebuilt from the Bloch axis, it leaks between
    # levels that are only 1e-8 apart.
    diag = np.zeros((len(moving), 2, 2), dtype=complex)
    diag[:, 0, 0] = np.where(moving, -1j, 1.0)
    diag[:, 1, 1] = np.where(moving, 1j, 1.0)
    u = basis @ diag @ _adjoint(basis)
    if merged.any():
        u[merged & moving] = 1j * _pauli(axis[merged & moving])
        u[merged & ~moving] = np.eye(2)
    return u, np.where(moving, math.pi, 0.0), axis


def _qubit_b_closed_forms(rhos, dims, *, eps_deg=EPS_DEGENERATE, tol_cyclic=TOL_CYCLIC,
                          first_index=None):
    """d_max on a qubit B side for a stack of states, with every check.

    ``rhos`` has shape (N, 2 dA, 2 dA).  A row whose rho_B has two levels
    (gap at least ``eps_deg * max(1, lambda_max)``, as in
    ``commutant_basis``) takes the phase form, the others the rotation
    form; both are a half turn, about different axes.  Every row then
    passes ``_verify``, which starts with the checks of
    ``cyclic_from_matrix`` and reports ``shift_correlation`` at the half
    turn as d.  The first failure of the lowest failing row is raised,
    named ``row first_index + i`` when ``first_index`` is given.
    """
    checks = _RowChecks(first_index)
    states = _states(rhos, dims, eps_deg)
    unitary, phi, axis = _half_turns(states)
    d, residual, _ = _verify(states, unitary, "correlation", tol_cyclic, checks)
    checks.raise_first()
    return _QubitBForms(d=d, beta=states.beta, merged=~states.splits[:, 0], unitary=unitary,
                        phi=phi, axis=axis, residual=residual)


def _closed_form_result(states, structure, tol_cyclic):
    """ShiftResult of the qubit-B closed forms: the N=1 case of the batch."""
    unitary, phi, axis = _half_turns(states)
    method = "phase-closed-form" if states.splits[0, 0] else "rotation-closed-form"
    return _finalize(states, structure, unitary[0], "correlation", method, tol_cyclic,
                     restarts=0, certified=True,
                     params={"phi": float(phi[0]), "axis": [float(x) for x in axis[0]]})


def _block_layout(sizes):
    # The rows and columns in W of the entries x of a block-diagonal W (blocks
    # grouped by size, ascending; row-major), and (size, count) per group.
    firsts = np.cumsum((0,) + tuple(sizes[:-1]))
    rows, cols, groups = [], [], []
    for s in sorted(set(sizes)):
        starts = firsts[np.array(sizes) == s]
        rows.append((starts[:, None] + np.repeat(np.arange(s), s)).ravel())
        cols.append((starts[:, None] + np.tile(np.arange(s), s)).ravel())
        groups.append((s, len(starts)))
    return np.concatenate(rows), np.concatenate(cols), groups


def _quadratic_form(rho_rot, dims, sizes):
    """M with Tr(rho rho_f) = x^dag M x over the entries x of a cyclic W.

    In the eigenbasis of rho_B (``rho_rot``) a cyclic unitary is block
    diagonal, W = (+)_k W_k, and x lists its block entries as
    ``_block_layout`` orders them.  With B_aa' the (dB, dB) blocks of rho,
    M_(ik),(jl) = sum_aa' B_aa'[i, j] conj(B_aa'[k, l]), Hermitian and
    positive semidefinite, and the radicand is R = Tr rho^2 - x^dag M x.
    For blocks of size 1, M_ij = sum_aa' |rho_(a i),(a' j)|^2 and
    R = sum_ij M_ij (1 - cos(theta_i - theta_j)).
    """
    na, nb = dims
    blocks = rho_rot.reshape(na, nb, na, nb)
    if max(sizes) == 1:
        return (np.abs(blocks) ** 2).sum(axis=(0, 2))
    every, (rows, cols, _) = np.arange(na), _block_layout(sizes)
    left, right = (blocks[np.ix_(every, at, every, at)] for at in (rows, cols))
    return (left * right.conj()).sum(axis=(0, 2))


def _blockwise(fn, groups, *arrays):
    # fn of the (R, count, s, s) block stacks of each group, back as rows
    out, start = [], 0
    for s, count in groups:
        stop = start + count * s * s
        stacks = (a[:, start:stop].reshape(len(a), count, s, s) for a in arrays)
        out.append(fn(*stacks).reshape(len(arrays[0]), -1))
        start = stop
    return np.concatenate(out, axis=1)


def _polar(y):
    # The unitary polar factor of each square matrix of a stack.
    if y.shape[-1] == 1:
        return y / np.abs(y)
    u, _, vh = np.linalg.svd(y)
    return u @ vh


def _riemannian_gradients(mmat, x, groups):
    # x^dag M x for each row of x and its Riemannian gradient: G = 2 M x
    # projected block by block to W skew(W^dag G), i Im(conj(w) g) w for size 1
    def tangent(w, g):
        a = _adjoint(w) @ g
        return w @ (0.5 * (a - _adjoint(a)))

    mx = x @ mmat.T
    return _inner(x, mx), _blockwise(tangent, groups, x, 2.0 * mx)


def _inner(a, b):
    # Re <a, b> for each row
    return np.einsum("rn,rn->r", a.conj(), b).real


_GRADIENT_TOL = 1e-10  # converged: Riemannian gradient norm below this times ||M||_F
_DEFAULT_MAX_ITERS = 1000
_ARMIJO = 1e-4
_NONMONOTONE = 10
_MAX_HALVINGS = 40


def _riemannian_descent(mmat, groups, starts, max_iters):
    """Minimize x^dag M x over U(s_1) x ... x U(s_k) from every start in lockstep.

    Each restart (a row of ``starts``) takes Barzilai-Borwein steps, the
    two variants in turn, along minus its Riemannian gradient, backtracks
    them to Armijo's decrease, and retracts with the polar factor (Absil,
    Mahony and Sepulchre 2008; Abrudan, Eriksson and Koivunen, IEEE TSP
    56, 1134, 2008).  The decrease is measured from the largest of the
    last _NONMONOTONE values, as in Raydan's global Barzilai-Borwein
    method (SIAM J. Optim. 7, 26, 1997), up to the rounding noise of
    x^dag M x.  A restart stops when it meets the stationarity test
    (converged), when backtracking finds no step (stalled), or after
    ``max_iters`` steps.  Returns the points, the converged flags and the
    number of gradient evaluations.
    """
    scale = float(np.linalg.norm(mmat))
    noise = 64.0 * np.finfo(float).eps * scale * starts.shape[1]
    small = (_GRADIENT_TOL * scale) ** 2
    x, converged = starts.copy(), np.zeros(len(starts), dtype=bool)
    # xl, fl, gl, sq and t hold the restarts still running, at rows live
    live, xl = np.arange(len(x)), starts
    fl, gl = _riemannian_gradients(mmat, xl, groups)
    nfev, sq, t = len(x), _inner(gl, gl), np.full(len(x), 0.5 / scale)
    recent, stalled = np.repeat(fl[:, None], _NONMONOTONE, axis=1), np.zeros(len(x), dtype=bool)
    for it in range(max_iters + 1):
        met = sq <= small
        stop = met | stalled | (it == max_iters)
        if stop.any():
            x[live[stop]], converged[live[stop]] = xl[stop], met[stop]
            live, xl, fl, gl, sq, t, recent = (a[~stop] for a in (live, xl, fl, gl, sq, t, recent))
            if not live.size:
                break
        floor = recent.max(axis=1) + noise
        x1 = _blockwise(_polar, groups, xl - t[:, None] * gl)
        f1, g1 = _riemannian_gradients(mmat, x1, groups)
        nfev += len(x1)
        short = np.flatnonzero(f1 > floor - _ARMIJO * t * sq)
        for _ in range(_MAX_HALVINGS):
            if not short.size:
                break
            t[short] *= 0.5
            x1[short] = _blockwise(_polar, groups, xl[short] - t[short, None] * gl[short])
            f1[short], g1[short] = _riemannian_gradients(mmat, x1[short], groups)
            nfev += len(short)
            short = short[f1[short] > floor[short] - _ARMIJO * t[short] * sq[short]]
        # a restart that found no step stays where it is, and stops
        stalled = np.isin(np.arange(len(live)), short)
        x1[short], f1[short], g1[short] = xl[short], fl[short], gl[short]
        dx, dg = x1 - xl, g1 - gl
        sy = np.abs(_inner(dx, dg))
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = _inner(dx, dx) / sy if it % 2 == 0 else sy / _inner(dg, dg)
        t = np.clip(np.where(bb > 0.0, bb, 0.5 / scale), 1e-6 / scale, 1e6 / scale)
        recent[:, it % _NONMONOTONE] = f1
        xl, fl, gl, sq = x1, f1, g1, _inner(g1, g1)
    return x, converged, nfev


def _dmax_generic(states, structure, restarts, rng, max_iters, tol_cyclic):
    sizes = structure.block_sizes
    rho_rot = _conj_b(states.rho[0], _adjoint(structure.basis), states.dims)
    mmat = _quadratic_form(rho_rot, states.dims, sizes)
    rows, cols, groups = _block_layout(sizes)
    # the polar factor of a complex Gaussian matrix is Haar distributed
    gauss = np.random.default_rng(rng).standard_normal((2, restarts, len(mmat)))
    starts = _blockwise(_polar, groups, gauss[0] + 1j * gauss[1])
    x, converged, nfev = _riemannian_descent(
        mmat, groups, starts, _DEFAULT_MAX_ITERS if max_iters is None else max_iters)
    phase_family = max(sizes) == 1
    if phase_family:
        # phases relative to theta_0 = 0, as the qutrit closed form reports them
        theta = np.angle(x * x[:, :1].conj())
        x = np.exp(1j * theta)
    w = np.zeros((restarts, states.dims[1], states.dims[1]), dtype=complex)
    w[:, rows, cols] = x
    radicands = _direct_radicands(rho_rot, w, states.dims)
    best = int(np.argmax(radicands))
    d_runs = np.sqrt(np.maximum(radicands, 0.0))
    params = {"phases": theta[best].tolist()} if phase_family else {}
    return _finalize(
        states, structure, structure.basis @ w[best] @ _adjoint(structure.basis),
        "direct", "multistart", tol_cyclic, anchor=radicands[best:best + 1], restarts=restarts,
        certified=bool(converged[best]), params=params, nfev=nfev,
        restart_spread=float(d_runs.max() - d_runs.min()))


def _qutrit_phases(weights):
    """The largest radicand of a qutrit phase family and phases that reach it.

    With J = W + W^T the radicand is
    R = sum_{i<j} J_ij (1 - cos(theta_i - theta_j)), a three-spin XY
    triangle.  Turning spin k by pi against the other two gives
    R = 2 (J_ki + J_kj).  When every J_ij > 0, write J_ij = c_i c_j; then
    sum_{i<j} J_ij cos = |sum_i c_i e^{i theta_i}|^2 / 2 - sum_i c_i^2 / 2,
    and when the c_i satisfy the strict triangle inequality the vectors
    c_i e^{i theta_i} close a triangle, giving R = sum J + sum_i c_i^2 / 2.
    Otherwise a collinear state is optimal.  Each candidate is a sum of
    nonnegative terms, and a zero or tiny coupling only rules out the
    noncollinear one.  Phases are relative to theta_0 = 0.
    """
    j = weights + weights.T
    j01, j02, j12 = float(j[0, 1]), float(j[0, 2]), float(j[1, 2])
    total = j01 + j02 + j12
    candidates = [(2.0 * (j01 + j02), [0.0, math.pi, math.pi]),
                  (2.0 * (j01 + j12), [0.0, math.pi, 0.0]),
                  (2.0 * (j02 + j12), [0.0, 0.0, math.pi])]
    if min(j01, j02, j12) > 0.0:
        sq0, sq1, sq2 = j01 * j02 / j12, j01 * j12 / j02, j02 * j12 / j01  # the c_i^2
        c = [math.sqrt(x) for x in (sq0, sq1, sq2)]
        if 2.0 * max(c) < sum(c):
            # law of cosines in the closed triangle, with theta_0 = 0 and
            # c_0 c_1 = J_01, c_0 c_2 = J_02
            theta1 = math.acos(min(1.0, max(-1.0, (sq2 - sq0 - sq1) / (2.0 * j01))))
            theta2 = -math.acos(min(1.0, max(-1.0, (sq1 - sq0 - sq2) / (2.0 * j02))))
            candidates.append((total + 0.5 * (sq0 + sq1 + sq2), [0.0, theta1, theta2]))
    radicand, phases = max(candidates, key=lambda item: item[0])
    # When no phase moves the state by more than float noise, report the
    # identity, as the qubit closed forms do.
    if radicand <= _FLAT_PHASE_FAMILY * max(1.0, total):
        return 0.0, [0.0, 0.0, 0.0]
    return radicand, phases


def _dmax_qutrit_phases(states, structure, tol_cyclic):
    rho_rot = _conj_b(states.rho[0], _adjoint(structure.basis), states.dims)
    radicand, phases = _qutrit_phases(_quadratic_form(rho_rot, states.dims, (1, 1, 1)))
    v = structure.basis
    u = v @ np.diag(np.exp(1j * np.array(phases))) @ _adjoint(v)
    return _finalize(states, structure, u, "direct", "qutrit-phase-closed-form", tol_cyclic,
                     anchor=np.array([radicand]), restarts=0, certified=True, params={"phases": phases})


def d_max(state, *, restarts=DEFAULT_RESTARTS, method="auto", rng=None, eps_deg=EPS_DEGENERATE,
          max_iters=None, tol_cyclic=TOL_CYCLIC):
    """Maximize the shift over all cyclic unitaries on subsystem B.

    Parameters
    ----------
    state : BipartiteState
    restarts : int
        Random restarts for the generic optimizer (ignored by the
        closed forms).
    method : {'auto', 'generic'}
        'auto' dispatches a qubit B subsystem to a closed form (phase
        family for nondegenerate rho_B, rotation form for rho_B = I/2),
        a qutrit B subsystem with three distinct levels of rho_B to the
        exact phase-triangle maximum ('qutrit-phase-closed-form'), and
        anything else (degenerate qutrit levels, dB >= 4) to the
        multi-start Riemannian optimizer.  'generic' forces the optimizer.
    rng : int, numpy Generator or None
        Seed material for the optimizer restarts.
    eps_deg : float
        Relative eigenvalue gap below which levels of rho_B merge into
        one block (see ``commutant_basis``).
    max_iters : int or None
        Iteration budget of each restart of the generic optimizer
        (1000 when None).
    tol_cyclic : float
        Commutation tolerance for every cyclic-unitary check on the way.
        Merging nearly degenerate levels with a large ``eps_deg`` admits
        unitaries that commute with rho_B only up to about the merged
        gap, so such runs need a matching ``tol_cyclic``.

    Returns
    -------
    ShiftResult
        ``d`` is the method's formula (``shift_correlation`` for the
        qubit-B closed forms, ``shift_direct`` otherwise) at the returned
        unitary, verified by the checks of both and their cross-check.

    Raises
    ------
    MergedLevelsError
        For every method, when the formulas disagree because ``eps_deg``
        merged distinct levels of rho_B and a loose ``tol_cyclic`` let
        through a unitary that mixes them; ConsistencyError otherwise.
    """
    return _d_max_of_states(_states(state.rho[None], state.dims, eps_deg),
                            restarts, method, rng, max_iters, tol_cyclic)


def _d_max_of_states(states, restarts, method, rng, max_iters, tol_cyclic):
    # d_max of the one state of ``states``, dispatched to its method.
    if method not in ("auto", "generic"):
        raise ValueError(f"method must be 'auto' or 'generic', got {method!r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    structure = _structure(states.levels[0].copy(), states.basis[0].copy(), states.splits[0])
    if method == "auto" and states.dims[1] == 2:
        return _closed_form_result(states, structure, tol_cyclic)
    if method == "auto" and structure.block_sizes == (1, 1, 1):
        return _dmax_qutrit_phases(states, structure, tol_cyclic)
    return _dmax_generic(states, structure, restarts, rng, max_iters, tol_cyclic)
