"""Reference values for cycshift outputs, computed with plain numpy.

Nothing here imports cycshift.  Every value comes from a closed form in
the paper, from the Horodecki CHSH criterion (Phys. Lett. A 200, 340,
1995), from a brute-force search, or from the definition of the
quantity itself (Pauli expectation values, a partial transpose written
out by hand, the shift 1/2 ||rho - rho_f||^2 evaluated on explicit
unitaries).

The two sampler replicas rebuild the states that ``cycshift scan``
draws for the ``random`` and ``separable`` families from the sampling
recipe the package documents (one SeedSequence substream per row
index), so that every scan row can be checked against its own state.
"""

import math

import numpy as np

SEPARABLE_BOUND = 1.0 / math.sqrt(2.0)
PPT_FLOOR = -1e-10

SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# PAULI_PAIRS[i, j] = sigma_i (x) sigma_j
PAULI_PAIRS = np.array([[np.kron(SIGMA[i], SIGMA[j]) for j in range(3)] for i in range(3)])


# --- closed forms -------------------------------------------------------

def werner(p):
    """Reference values of the Werner state p |psi-><psi-| + (1-p) I/4."""
    return {
        "d_max": abs(p),
        "beta_norm": math.sqrt(3.0) * abs(p),
        "ppt_entangled": p > 1.0 / 3.0,
        "bound_violated": abs(p) > SEPARABLE_BOUND,
    }


def schmidt(k1):
    """Reference values of k1|00> + k2|11> with k2 = sqrt(1 - k1^2)."""
    k2 = math.sqrt(max(0.0, 1.0 - k1 * k1))
    c = 2.0 * k1 * k2
    return {
        "d_max": c,
        "beta_norm": math.sqrt(1.0 + 2.0 * c * c),
        "ppt_entangled": k1 * k2 > 0.0,
        "bound_violated": c > SEPARABLE_BOUND,
    }


def chsh_schmidt(k1, phi):
    """Shift and stage-1 CHSH maximum of the phase operation on a Schmidt state."""
    k2 = math.sqrt(max(0.0, 1.0 - k1 * k1))
    return {
        "d": 2.0 * k1 * k2 * abs(math.sin(phi / 2.0)),
        "f_max": 4.0 * math.sqrt(2.0) * k1 * k2,
    }


def chsh_werner(p, phi):
    """Shift and stage-1 CHSH maximum of the phase operation on a Werner state."""
    return {
        "d": abs(p * math.sin(phi / 2.0)),
        "f_max": 2.0 * math.sqrt(2.0) * abs(p),
    }


# --- states written out by hand ----------------------------------------

def pure_density(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def schmidt_density(k1):
    k2 = math.sqrt(max(0.0, 1.0 - k1 * k1))
    return pure_density([k1, 0.0, 0.0, k2])


def werner_density(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * pure_density(singlet) + (1.0 - p) * np.eye(4) / 4.0


def maximally_entangled(da, db, rank):
    vec = np.zeros(da * db, dtype=complex)
    for i in range(rank):
        vec[i * db + i] = 1.0
    return pure_density(vec)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(n, rng):
    """G G^dag / Tr, Hermitian to the last bit so it survives validation."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


# --- sampler replicas ---------------------------------------------------

def _substream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def scan_random_density(seed, index, n=4):
    """State of row ``index`` of ``scan --family random --seed seed``."""
    rng = _substream(seed, index)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def scan_separable_density(seed, index, da=2, db=2, m_range=(2, 8)):
    """(state, ensemble size) of row ``index`` of ``scan --family separable``."""
    rng = _substream(seed, index)
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    weights = rng.dirichlet(np.ones(m))
    rho = np.zeros((da * db, da * db), dtype=complex)
    for weight in weights:
        vecs = []
        for dim in (da, db):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vecs.append(z / np.linalg.norm(z))
        joint = np.kron(vecs[0], vecs[1])
        rho += weight * np.outer(joint, joint.conj())
    return rho, m


# --- quantities from their definitions -----------------------------------

def reduced(rho, dims):
    """(rho_A, rho_B) by an explicit index contraction."""
    da, db = dims
    r4 = np.asarray(rho).reshape(da, db, da, db)
    return np.einsum("ajbj->ab", r4), np.einsum("iaib->ab", r4)


def pauli_form(rho):
    """(r_a, r_b, beta) of a two-qubit state as Pauli expectation values.

    Accepts one 4x4 matrix or a stack of shape (N, 4, 4).
    """
    rho = np.asarray(rho, dtype=complex)
    beta = np.einsum("...kl,ijlk->...ij", rho, PAULI_PAIRS).real
    eye = np.eye(2)
    side_a = np.array([np.kron(s, eye) for s in SIGMA])
    side_b = np.array([np.kron(eye, s) for s in SIGMA])
    r_a = np.einsum("...kl,ilk->...i", rho, side_a).real
    r_b = np.einsum("...kl,ilk->...i", rho, side_b).real
    return r_a, r_b, beta


def min_partial_transpose_eig(rho, dims):
    """Smallest eigenvalue of the partial transpose on B.

    The transpose is written out entry by entry: element
    ((a, j), (a', j')) of the result is element ((a, j'), (a', j)) of rho.
    Accepts one matrix or a stack of matrices.
    """
    da, db = dims
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (da, db, da, db))
    pt = np.swapaxes(r, -1, -3).reshape(lead + (da * db, da * db))
    pt = (pt + np.conj(np.swapaxes(pt, -1, -2))) / 2.0
    return np.linalg.eigvalsh(pt)[..., 0]


def ppt_flag(min_eig):
    return bool(min_eig < PPT_FLOOR)


def horodecki_bmax(beta):
    """Maximal CHSH value 2 sqrt(m1 + m2), m the top eigenvalues of beta^T beta."""
    m = np.linalg.eigvalsh(np.asarray(beta).T @ np.asarray(beta))
    return 2.0 * math.sqrt(max(m[-1] + m[-2], 0.0))


def shift_of(rho, dims, u):
    """sqrt(1/2 ||rho - rho_f||^2) for rho_f = (I (x) U) rho (I (x) U)^dag."""
    full = np.kron(np.eye(dims[0]), np.asarray(u, dtype=complex))
    diff = rho - full @ rho @ full.conj().T
    return math.sqrt(max(0.5 * float(np.vdot(diff, diff).real), 0.0))


def commutes_with_rho_b(rho, dims, u, tol=1e-8):
    _, rho_b = reduced(rho, dims)
    return float(np.abs(rho_b @ u - u @ rho_b).max()) <= tol


def _eigenbasis_weights(rho, dims):
    """|rho|^2 in the eigenbasis of rho_B, shape (..., da, db, da, db), and the gaps.

    Entry (a, j, a', j') is |<a j| rho |a' j'>|^2 with j, j' eigenvectors
    of rho_B in ascending order; ``gaps`` is the smallest spacing between
    consecutive eigenvalues.
    """
    da, db = dims
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (da, db, da, db))
    rho_b = np.einsum("...iaib->...ab", r)
    w, v = np.linalg.eigh(rho_b)
    rot = np.einsum("...ajbk,...jm,...kn->...ambn", r, v.conj(), v)
    return np.abs(rot) ** 2, np.diff(w, axis=-1).min(axis=-1)


def phase_family_dmax(rho, dims=(2, 2), points=65):
    """Brute-force max of the shift over relative phases in rho_B's eigenbasis.

    For a qubit B with nondegenerate rho_B the phase family
    diag(1, e^{i phi}) is the whole commutant up to a global phase.  The
    grid on [0, 2 pi] holds phi = pi.  Returns (d_max, gap); a caller
    treats gap below about 1e-6 as degenerate, where the commutant is
    larger than this family.  Accepts one matrix or a stack.
    """
    weights, gap = _eigenbasis_weights(rho, dims)
    db = dims[1]
    j = np.arange(db)
    delta = j[:, None] - j[None, :]
    phis = np.linspace(0.0, 2.0 * np.pi, points)
    factor = np.abs(1.0 - np.exp(1j * phis[:, None, None] * delta)) ** 2
    radicand = 0.5 * np.einsum("...ajbk,pjk->...p", weights, factor)
    return np.sqrt(np.maximum(radicand.max(axis=-1), 0.0)), gap


def nondegenerate_dmax_bounds(rho, dims, rng, samples=256):
    """(lower, upper, gap) bounds on d_max for a nondegenerate rho_B.

    In rho_B's eigenbasis a cyclic unitary is diag(e^{i theta}), and the
    squared shift is sum_{j != k} W_jk (1 - cos(theta_j - theta_k)) with
    W_jk = sum_{a, a'} |rho_{(a,j),(a',k)}|^2.  The lower bound is the
    largest shift among ``samples`` random phase vectors; the upper bound
    takes every cosine at -1.
    """
    weights, gap = _eigenbasis_weights(rho, dims)
    w_jk = weights.sum(axis=(0, 2))
    db = dims[1]
    off = ~np.eye(db, dtype=bool)
    upper = math.sqrt(2.0 * float(w_jk[off].sum()))
    thetas = rng.uniform(-np.pi, np.pi, size=(samples, db))
    diff = thetas[:, :, None] - thetas[:, None, :]
    radicand = np.einsum("jk,sjk->s", w_jk, 1.0 - np.cos(diff))
    lower = math.sqrt(max(float(radicand.max()), 0.0))
    return lower, upper, float(gap)


def bloch_norms(rho, dims):
    """Squared norms |r_a|^2, |r_b|^2, |beta|^2 from the purity identities.

    With the package's normalization (a pure marginal has |r| = 1 in any
    dimension), Tr rho_X^2 = (1 + (n_X - 1)|r_X|^2) / n_X and
    Tr rho^2 = (1 + (na-1)|r_a|^2 + (nb-1)|r_b|^2
                + (na-1)(nb-1)|beta|^2) / (na nb).
    """
    na, nb = dims
    rho_a, rho_b = reduced(rho, dims)
    pur = float(np.vdot(rho, rho).real)
    pur_a = float(np.vdot(rho_a, rho_a).real)
    pur_b = float(np.vdot(rho_b, rho_b).real)
    ra2 = (na * pur_a - 1.0) / (na - 1)
    rb2 = (nb * pur_b - 1.0) / (nb - 1)
    beta2 = (na * nb * pur - 1.0 - (na - 1) * ra2 - (nb - 1) * rb2) / ((na - 1) * (nb - 1))
    return ra2, rb2, beta2
