"""State factories, samplers and serialization.

Factories cover the named families used throughout the package
(Schmidt-form pure states, Werner states, classical two-outcome
mixtures, convex mixtures of product states).  Samplers are driven by
integer seeds and derive one independent substream per sample index, so
a sample is reproducible on its own and batches can be split across
workers without changing the output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import TOL_HERM, TOL_PSD, BipartiteState
from .errors import DimensionError, NormalizationError, NotAStateError

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _substream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def schmidt_state(k1, k2):
    """Pure two-qubit state k1|00> + k2|11>.

    Coefficients must satisfy |k1|^2 + |k2|^2 = 1 within 1e-12.
    """
    total = abs(k1) ** 2 + abs(k2) ** 2
    if abs(total - 1.0) > 1e-12:
        raise NormalizationError(
            f"|k1|^2 + |k2|^2 = {total:.15g}, expected 1"
        )
    vec = np.zeros(4, dtype=complex)
    vec[0] = k1
    vec[3] = k2
    return BipartiteState(np.outer(vec, vec.conj()), (2, 2))


def bell_state():
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return schmidt_state(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def werner_state(p):
    """Werner state p |psi-><psi-| + (1-p) I/4.

    Valid for -1/3 <= p <= 1; outside that range the matrix is not a
    state and NotAStateError is raised.
    """
    if not -1.0 / 3.0 - 1e-12 <= p <= 1.0 + 1e-12:
        raise NotAStateError(f"werner parameter {p} is outside [-1/3, 1]")
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / math.sqrt(2.0)
    singlet[2] = -1.0 / math.sqrt(2.0)
    rho = p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return BipartiteState(rho, (2, 2))


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
    clean = []
    dim_a = dim_b = None
    total = 0.0
    for weight, vec_a, vec_b in terms:
        weight = float(weight)
        if weight <= 0.0:
            raise ValueError(f"ensemble weights must be positive, got {weight}")
        vec_a = np.asarray(vec_a, dtype=complex).reshape(-1)
        vec_b = np.asarray(vec_b, dtype=complex).reshape(-1)
        if dim_a is None:
            dim_a, dim_b = len(vec_a), len(vec_b)
        elif (len(vec_a), len(vec_b)) != (dim_a, dim_b):
            raise DimensionError("ensemble terms have inconsistent dimensions")
        for vec in (vec_a, vec_b):
            nrm = np.linalg.norm(vec)
            if abs(nrm - 1.0) > 1e-12:
                raise NormalizationError(
                    f"ensemble local state has norm {nrm:.15g}, expected 1"
                )
        total += weight
        clean.append((weight, vec_a, vec_b))
    if abs(total - 1.0) > 1e-12:
        raise NormalizationError(f"ensemble weights sum to {total:.15g}, expected 1")
    n = dim_a * dim_b
    rho = np.zeros((n, n), dtype=complex)
    for weight, vec_a, vec_b in clean:
        joint = np.kron(vec_a, vec_b)
        rho += weight * np.outer(joint, joint.conj())
    state = BipartiteState(rho, (dim_a, dim_b))
    return state, Ensemble(terms=tuple(clean), dim_a=dim_a, dim_b=dim_b)


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
    lo, hi = int(m_range[0]), int(m_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"m_range must satisfy 1 <= lo <= hi, got {m_range}")
    da, db = int(dims[0]), int(dims[1])
    rng = _substream(seed, index)
    m = int(rng.integers(lo, hi + 1))
    weights = rng.dirichlet(np.ones(m))
    terms = [
        (weights[l], haar_state_vector(da, rng), haar_state_vector(db, rng))
        for l in range(m)
    ]
    return ensemble_state(terms)


def sample_separable(seed, count=1, dims=(2, 2), m_range=(2, 8)):
    """Yield ``count`` separable states with their generating ensembles."""
    for i in range(count):
        yield separable_at(seed, i, dims=dims, m_range=m_range)


def random_state_at(seed, index, dims=(2, 2), rank=None):
    """Sample ``index`` of the random-state stream: G G^dag / Tr(G G^dag).

    G has i.i.d. complex Gaussian entries and ``rank`` columns (full
    rank when None).  The sample depends only on ``(seed, index)``.
    """
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    r = n if rank is None else int(rank)
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    rng = _substream(seed, index)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return BipartiteState(rho, (da, db))


def sample_random_state(seed, dims=(2, 2), rank=None, count=1):
    """Yield ``count`` random density matrices G G^dag / Tr(G G^dag)."""
    for i in range(count):
        yield random_state_at(seed, i, dims=dims, rank=rank)


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
