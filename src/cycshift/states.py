"""State factories, samplers and serialization.

Factories cover the named families used throughout the package
(Schmidt-form pure states, Werner states, classical two-outcome
mixtures, convex mixtures of product states).  Samplers are driven by
integer seeds and derive one independent substream per sample index, so
a sample is reproducible on its own and batches can be split across
workers without changing the output.

Each family has one block builder, which draws a block of samples (or
takes a block of grid values) and builds their density matrices as one
stack, in array passes; only each sample's substream and its draws run
row by row.  A builder returns the stack unvalidated, for one
``_validate_states`` call over the block.  The single-state factories
and samplers are the N=1 calls of these builders.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import TOL_HERM, TOL_PSD, BipartiteState, _named, _sq_norms
from .errors import DimensionError, NormalizationError, NotAStateError

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
_SINGLET = np.array([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], dtype=complex)
_SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET.conj())


# Samples a generator builds per block; bounds the memory of a long stream
SAMPLE_BLOCK = 1024


def _substream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _schmidt_block(k1, k2):
    """The stack of k1|00> + k2|11> for arrays of coefficients.

    Each pair must satisfy |k1|^2 + |k2|^2 = 1 within 1e-12; the lowest
    failing pair raises.
    """
    total = np.abs(k1) ** 2 + np.abs(k2) ** 2
    bad = np.abs(total - 1.0) > 1e-12
    if bad.any():
        k = int(np.argmax(bad))
        raise NormalizationError(f"|k1|^2 + |k2|^2 = {total[k]:.15g}, expected 1")
    vec = np.zeros((len(total), 4), dtype=complex)
    vec[:, 0] = k1
    vec[:, 3] = k2
    return vec[:, :, None] * vec.conj()[:, None, :]


def schmidt_state(k1, k2):
    """Pure two-qubit state k1|00> + k2|11>.

    Coefficients must satisfy |k1|^2 + |k2|^2 = 1 within 1e-12.
    """
    return BipartiteState(_schmidt_block(np.array([k1]), np.array([k2]))[0], (2, 2))


def bell_state():
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return schmidt_state(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def _werner_block(p):
    """The stack of Werner states p |psi-><psi-| + (1-p) I/4 for an array of p.

    Each p must lie in [-1/3, 1]; the lowest one outside raises
    NotAStateError.
    """
    inside = (-1.0 / 3.0 - 1e-12 <= p) & (p <= 1.0 + 1e-12)
    if not inside.all():
        k = int(np.argmin(inside))
        raise NotAStateError(f"werner parameter {p[k]} is outside [-1/3, 1]")
    p = p[:, None, None]
    return p * _SINGLET_PROJECTOR + (1.0 - p) * np.eye(4) / 4.0


def werner_state(p):
    """Werner state p |psi-><psi-| + (1-p) I/4.

    Valid for -1/3 <= p <= 1; outside that range the matrix is not a
    state and NotAStateError is raised.
    """
    return BipartiteState(_werner_block(np.array([p]))[0], (2, 2))


def maximally_mixed(dims):
    """I/(NA*NB) on the given dimensions."""
    n = int(dims[0]) * int(dims[1])
    return BipartiteState(np.eye(n, dtype=complex) / n, dims)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Convex mixture of product pure states.

    ``terms`` is a tuple of (weight, vector on A, vector on B).
    """

    terms: tuple
    dim_a: int
    dim_b: int

    @property
    def m(self):
        return len(self.terms)


def _norms(z):
    # np.linalg.norm of each complex vector along the last axis, bit for bit
    return np.sqrt(_sq_norms(z.real) + _sq_norms(z.imag))


def _ensemble_fault(weights, vecs_a, vecs_b):
    """The lowest failing ensemble of a stack, as (row, error), or None.

    ``weights`` has shape (N, M), ``vecs_a`` (N, M, dA) and ``vecs_b``
    (N, M, dB).  Term by term, each weight must be positive and each local
    vector unit within 1e-12; then the weights, added in term order, must
    sum to 1 within 1e-12.  The error is that row's first failed check.
    """
    norms = np.stack([_norms(vecs_a), _norms(vecs_b)], axis=-1)
    totals = np.cumsum(weights, axis=-1)[..., -1]
    bad = ((weights <= 0.0)[..., None] | (np.abs(norms - 1.0) > 1e-12)).any(axis=(1, 2))
    bad |= np.abs(totals - 1.0) > 1e-12
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    for weight, pair in zip(weights[k].tolist(), norms[k]):
        if weight <= 0.0:
            return k, ValueError(f"ensemble weights must be positive, got {weight}")
        for nrm in pair:
            if abs(nrm - 1.0) > 1e-12:
                return k, NormalizationError(
                    f"ensemble local state has norm {nrm:.15g}, expected 1")
    return k, NormalizationError(f"ensemble weights sum to {totals[k]:.15g}, expected 1")


def _ensemble_rhos(weights, vecs_a, vecs_b):
    """sum_l p_l |a_l><a_l| (x) |b_l><b_l| for each ensemble of a stack.

    Shapes as in ``_ensemble_fault``.  Each joint vector is the flattened
    outer product of its pair, which is np.kron bit for bit, and the
    weighted projectors are added in term order.
    """
    count, m = weights.shape
    joint = (vecs_a[..., :, None] * vecs_b[..., None, :]).reshape(count, m, -1)
    rhos = np.zeros((count,) + 2 * joint.shape[-1:], dtype=complex)
    for l in range(m):
        vec = joint[:, l]
        rhos += weights[:, l, None, None] * (vec[:, :, None] * vec.conj()[:, None, :])
    return rhos


def ensemble_state(terms):
    """Build sum_l p_l |a_l><a_l| (x) |b_l><b_l| from (p, a, b) triples.

    Weights must be positive and sum to 1 within 1e-12; the local
    vectors must be unit within 1e-12.

    Returns
    -------
    (BipartiteState, Ensemble)
    """
    terms = list(terms)
    if not terms:
        raise ValueError("ensemble needs at least one term")
    weights = [float(weight) for weight, _, _ in terms]
    vecs_a = [np.asarray(vec, dtype=complex).reshape(-1) for _, vec, _ in terms]
    vecs_b = [np.asarray(vec, dtype=complex).reshape(-1) for _, _, vec in terms]
    if len({len(v) for v in vecs_a}) > 1 or len({len(v) for v in vecs_b}) > 1:
        raise DimensionError("ensemble terms have inconsistent dimensions")
    stacks = np.array([weights]), np.array([vecs_a]), np.array([vecs_b])
    fault = _ensemble_fault(*stacks)
    if fault is not None:
        raise fault[1]
    dim_a, dim_b = len(vecs_a[0]), len(vecs_b[0])
    state = BipartiteState(_ensemble_rhos(*stacks)[0], (dim_a, dim_b))
    return state, Ensemble(terms=tuple(zip(weights, vecs_a, vecs_b)), dim_a=dim_a, dim_b=dim_b)


def cc5050():
    """Even classical mixture (|00><00| + |11><11|)/2."""
    state, _ = ensemble_state([(0.5, KET0, KET0), (0.5, KET1, KET1)])
    return state


def haar_state_vector(dim, rng):
    """Haar-distributed pure state vector of the given dimension."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR with phase correction."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _unit_pairs(parts, da):
    """Each term's (vector on A, vector on B), normalized, from its raw draws.

    The last axis of ``parts`` holds Re a (dA), Im a (dA), Re b, Im b.
    """
    db = (parts.shape[-1] - 2 * da) // 2
    vec_a = parts[..., :da] + 1j * parts[..., da:2 * da]
    vec_b = parts[..., 2 * da:2 * da + db] + 1j * parts[..., 2 * da + db:]
    return vec_a / _norms(vec_a)[..., None], vec_b / _norms(vec_b)[..., None]


def _separable_block(seed, start, stop, dims=(2, 2), m_range=(2, 8)):
    """Samples start..stop-1 of the separable stream for ``seed``.

    Sample i draws from its own substream a term count M uniformly from
    ``m_range`` (inclusive), then weights from the flat simplex, then for
    each term the real and imaginary parts of a vector on A and of one on
    B, which are Haar-distributed once normalized.  The rows are built in
    groups of equal M; a failed ensemble check names ``row i`` of the
    lowest failing sample.

    Returns
    -------
    (rhos, draws): the (N, dA dB, dA dB) stack of density matrices, and
    each sample's (weights, parts) draws, of shapes (M,) and
    (M, 2 (dA + dB)) (see ``_unit_pairs``).
    """
    lo, hi = int(m_range[0]), int(m_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"m_range must satisfy 1 <= lo <= hi, got {m_range}")
    da, db = int(dims[0]), int(dims[1])
    draws = []
    for index in range(start, stop):
        rng = _substream(seed, index)
        m = int(rng.integers(lo, hi + 1))
        draws.append((rng.dirichlet(np.ones(m)), rng.standard_normal((m, 2 * (da + db)))))
    sizes = np.array([len(weights) for weights, _ in draws])
    rhos = np.empty((len(draws), da * db, da * db), dtype=complex)
    faults = []
    for m in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == m)
        weights, parts = (np.array([draws[k][part] for k in rows]) for part in (0, 1))
        group = (weights, *_unit_pairs(parts, da))
        fault = _ensemble_fault(*group)
        if fault is not None:
            faults.append((int(rows[fault[0]]), fault[1]))
        rhos[rows] = _ensemble_rhos(*group)
    if faults:
        row, error = min(faults, key=lambda fault: fault[0])
        raise type(error)(_named(str(error), start, row))
    return rhos, draws


def _ensemble(draws, dims):
    # The Ensemble of one sample's (weights, parts) draws
    weights, parts = draws
    vecs_a, vecs_b = _unit_pairs(parts, int(dims[0]))
    return Ensemble(terms=tuple(zip(weights.tolist(), vecs_a, vecs_b)),
                    dim_a=int(dims[0]), dim_b=int(dims[1]))


def separable_at(seed, index, dims=(2, 2), m_range=(2, 8)):
    """Sample ``index`` of the separable stream for ``seed``, built directly.

    Draws a term count M uniformly from ``m_range`` (inclusive),
    weights from the flat simplex, and local pure states from the Haar
    measure.  The sample depends only on ``(seed, index)``, so any
    sample can be built without generating its predecessors.

    Returns
    -------
    (BipartiteState, Ensemble)
    """
    rhos, draws = _separable_block(seed, index, index + 1, dims=dims, m_range=m_range)
    return BipartiteState(rhos[0], dims), _ensemble(draws[0], dims)


def sample_separable(seed, count=1, dims=(2, 2), m_range=(2, 8)):
    """Yield ``count`` separable states with their generating ensembles."""
    for start in range(0, count, SAMPLE_BLOCK):
        rhos, draws = _separable_block(seed, start, min(count, start + SAMPLE_BLOCK),
                                       dims=dims, m_range=m_range)
        for rho, sample in zip(rhos, draws):
            yield BipartiteState(rho, dims), _ensemble(sample, dims)


def _random_block(seed, start, stop, dims=(2, 2), rank=None):
    """Samples start..stop-1 of the random-state stream for ``seed``.

    Sample i is G G^dag / Tr(G G^dag), with G drawn from its own
    substream: i.i.d. complex Gaussian entries (the real parts, then the
    imaginary parts) and ``rank`` columns (full rank when None).
    Returns the (N, dA dB, dA dB) stack.
    """
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    r = n if rank is None else int(rank)
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    parts = np.empty((stop - start, 2, n, r))
    for row, index in enumerate(range(start, stop)):
        _substream(seed, index).standard_normal(out=parts[row])
    g = parts[:, 0] + 1j * parts[:, 1]
    rhos = g @ g.conj().transpose(0, 2, 1)
    rhos /= rhos.trace(axis1=1, axis2=2).real[:, None, None]
    return rhos


def random_state_at(seed, index, dims=(2, 2), rank=None):
    """Sample ``index`` of the random-state stream: G G^dag / Tr(G G^dag).

    G has i.i.d. complex Gaussian entries and ``rank`` columns (full
    rank when None).  The sample depends only on ``(seed, index)``.
    """
    return BipartiteState(_random_block(seed, index, index + 1, dims=dims, rank=rank)[0], dims)


def sample_random_state(seed, dims=(2, 2), rank=None, count=1):
    """Yield ``count`` random density matrices G G^dag / Tr(G G^dag)."""
    for start in range(0, count, SAMPLE_BLOCK):
        for rho in _random_block(seed, start, min(count, start + SAMPLE_BLOCK),
                                 dims=dims, rank=rank):
            yield BipartiteState(rho, dims)


def state_to_json(state):
    """JSON-serializable dict {dims, matrix} with row-major [re, im] pairs."""
    flat = state.rho.reshape(-1)
    return {
        "dims": [state.dim_a, state.dim_b],
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }


def state_from_json(data, *, tol_herm=TOL_HERM, tol_psd=TOL_PSD):
    """Inverse of state_to_json, with full schema and physics validation."""
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object with 'dims' and 'matrix'")
    dims = data.get("dims")
    matrix = data.get("matrix")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(d, int) for d in dims)):
        raise ValueError("'dims' must be a list of two integers")
    if not isinstance(matrix, list):
        raise ValueError("'matrix' must be a list of [re, im] pairs")
    n = dims[0] * dims[1]
    if len(matrix) != n * n:
        raise ValueError(
            f"'matrix' has {len(matrix)} entries, expected {n * n} for dims {dims}"
        )
    flat = np.empty(n * n, dtype=complex)
    for pos, entry in enumerate(matrix):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)):
            raise ValueError(f"matrix entry {pos} is not a [re, im] pair")
        flat[pos] = entry[0] + 1j * entry[1]
    return BipartiteState(flat.reshape(n, n), tuple(dims),
                          tol_herm=tol_herm, tol_psd=tol_psd)


def resolve_builtin(name):
    """Resolve a builtin state name like 'bell' or 'werner:0.5'.

    Returns None when the leading token is not a known builtin, so a
    caller can fall back to treating ``name`` as a file path.  A known
    builtin with malformed parameters raises ValueError.
    """
    head, _, arg = name.partition(":")
    if head == "bell":
        if arg:
            raise ValueError("bell takes no parameter")
        return bell_state()
    if head == "schmidt":
        try:
            k1 = float(arg)
        except ValueError:
            raise ValueError(f"schmidt needs a numeric k1, got {arg!r}") from None
        if not 0.0 <= k1 <= 1.0:
            raise ValueError(f"schmidt k1 must lie in [0, 1], got {k1}")
        return schmidt_state(k1, math.sqrt(max(0.0, 1.0 - k1 * k1)))
    if head == "werner":
        try:
            p = float(arg)
        except ValueError:
            raise ValueError(f"werner needs a numeric p, got {arg!r}") from None
        return werner_state(p)
    if head == "cc5050":
        if arg:
            raise ValueError("cc5050 takes no parameter")
        return cc5050()
    if head == "maxmixed":
        parts = arg.split("x")
        if len(parts) != 2:
            raise ValueError(f"maxmixed needs dims like '2x2', got {arg!r}")
        try:
            dims = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ValueError(f"maxmixed needs integer dims, got {arg!r}") from None
        return maximally_mixed(dims)
    return None
