import math
import tracemalloc

import numpy as np
import pytest

from cycshift.bloch import (
    BipartiteState,
    BlochForm,
    _bloch_vectors,
    _correlation_matrices,
    _gell_mann_beta_terms,
    _validate_states,
    bloch_vector,
    decompose,
    reconstruct,
)
from cycshift.errors import DimensionError, NotAStateError
from cycshift.operators import gell_mann_basis, tensor
from cycshift.states import (
    bell_state,
    cc5050,
    ensemble_state,
    haar_state_vector,
    maximally_mixed,
    sample_random_state,
    schmidt_state,
)

PAULI = tuple(gell_mann_basis(2))


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def test_state_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(NotAStateError):
        BipartiteState(m, (2, 2))


def test_state_rejects_wrong_trace():
    with pytest.raises(NotAStateError):
        BipartiteState(np.eye(4, dtype=complex), (2, 2))


def test_state_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(NotAStateError):
        BipartiteState(m, (2, 2))


def test_nan_tolerance_fails_its_check():
    m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(NotAStateError, match="positive semidefinite"):
        BipartiteState(m, (2, 2), tol_psd=float("nan"))
    with pytest.raises(NotAStateError, match="Hermitian"):
        BipartiteState(np.eye(4) / 4, (2, 2), tol_herm=float("nan"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_state_rejects_non_finite_entries(entry, where):
    m = np.eye(4, dtype=complex) / 4
    m[where] = m[where[::-1]] = entry
    with pytest.raises(NotAStateError, match="non-finite entries"):
        BipartiteState(m, (2, 2))


def _faulty_matrices():
    # row k of the stack fails the k-th of BipartiteState's checks
    non_finite = np.eye(4, dtype=complex) / 4
    non_finite[1, 1] = np.nan
    non_hermitian = np.eye(4, dtype=complex) / 4
    non_hermitian[0, 1] = 0.1
    return {
        1: non_finite,
        2: non_hermitian,
        3: np.eye(4, dtype=complex),
        4: np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex),
    }


@pytest.mark.parametrize("row", [1, 2, 3, 4])
def test_stack_validator_names_the_failing_row(row):
    rng = np.random.default_rng(row)
    bad = _faulty_matrices()[row]
    with pytest.raises(NotAStateError) as single:
        BipartiteState(bad, (2, 2))
    stack = np.array([random_density(4, rng) for _ in range(6)])
    _validate_states(stack, first_index=10)
    stack[row] = bad
    with pytest.raises(NotAStateError) as block:
        _validate_states(stack, first_index=0)
    assert str(block.value) == f"row {row}: {single.value}"
    with pytest.raises(NotAStateError) as offset:
        _validate_states(stack, first_index=30)
    assert str(offset.value) == f"row {30 + row}: {single.value}"


def test_stack_validator_reports_the_lowest_failing_row():
    # row 3 fails a later check than row 4; the lowest row still wins
    faulty = _faulty_matrices()
    stack = np.array([np.eye(4, dtype=complex) / 4] * 6)
    stack[3], stack[4] = faulty[4], faulty[1]
    with pytest.raises(NotAStateError, match=r"^row 3: matrix is not positive semidefinite"):
        _validate_states(stack, first_index=0)


def test_state_rejects_mismatched_dims():
    with pytest.raises(DimensionError):
        BipartiteState(np.eye(4, dtype=complex) / 4, (2, 3))
    with pytest.raises(DimensionError):
        BipartiteState(np.eye(2, dtype=complex) / 2, (1, 2))


def test_state_matrix_is_read_only():
    state = bell_state()
    with pytest.raises(ValueError):
        state.rho[0, 0] = 9.0


def test_purity_and_state_id():
    assert abs(bell_state().purity() - 1.0) < 1e-14
    assert bell_state().state_id == bell_state().state_id
    assert bell_state().state_id != cc5050().state_id


def test_qubit_decompose_matches_pauli_expectations():
    rng = np.random.default_rng(2)
    state = BipartiteState(random_density(4, rng), (2, 2))
    form = decompose(state)
    for i in range(3):
        want_a = np.trace(state.rho @ tensor(PAULI[i], np.eye(2))).real
        want_b = np.trace(state.rho @ tensor(np.eye(2), PAULI[i])).real
        assert abs(form.r_a[i] - want_a) < 1e-13
        assert abs(form.r_b[i] - want_b) < 1e-13
        for j in range(3):
            want = np.trace(state.rho @ tensor(PAULI[i], PAULI[j])).real
            assert abs(form.beta[i, j] - want) < 1e-13


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_decompose_reconstruct_roundtrip(dims):
    rng = np.random.default_rng(5)
    n = dims[0] * dims[1]
    for _ in range(10):
        state = BipartiteState(random_density(n, rng), dims)
        back = reconstruct(decompose(state))
        assert np.max(np.abs(back.rho - state.rho)) < 1e-12
        assert back.dims == dims


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_product_state_beta_is_outer_product(dims):
    rng = np.random.default_rng(8)
    da, db = dims
    rho_a = random_density(da, rng)
    rho_b = random_density(db, rng)
    state = BipartiteState(tensor(rho_a, rho_b), dims)
    form = decompose(state)
    assert np.max(np.abs(form.beta - np.outer(form.r_a, form.r_b))) < 1e-13


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pure_local_states_have_unit_bloch_norm(dim):
    rng = np.random.default_rng(9)
    vec_a = haar_state_vector(dim, rng)
    vec_b = haar_state_vector(2, rng)
    joint = np.kron(vec_a, vec_b)
    state = BipartiteState(np.outer(joint, joint.conj()), (dim, 2))
    r_a = bloch_vector(state.rho_a, gell_mann_basis(state.dim_a))
    r_b = bloch_vector(state.rho_b, gell_mann_basis(state.dim_b))
    assert abs(np.linalg.norm(r_a) - 1.0) < 1e-12
    assert abs(np.linalg.norm(r_b) - 1.0) < 1e-12


def test_bell_bloch_form():
    form = decompose(bell_state())
    assert np.max(np.abs(form.r_a)) < 1e-14
    assert np.max(np.abs(form.r_b)) < 1e-14
    assert np.max(np.abs(form.beta - np.diag([1.0, -1.0, 1.0]))) < 1e-14


def test_schmidt_bloch_form():
    k1, k2 = 0.6, 0.8
    form = decompose(schmidt_state(k1, k2))
    z = k1 * k1 - k2 * k2
    assert np.max(np.abs(form.r_a - np.array([0.0, 0.0, z]))) < 1e-14
    assert np.max(np.abs(form.r_b - np.array([0.0, 0.0, z]))) < 1e-14
    want = np.diag([2 * k1 * k2, -2 * k1 * k2, 1.0])
    assert np.max(np.abs(form.beta - want)) < 1e-14


def test_ensemble_beta_is_weighted_outer_sum():
    rng = np.random.default_rng(12)
    weights = rng.dirichlet(np.ones(4))
    terms = [
        (weights[l], haar_state_vector(2, rng), haar_state_vector(2, rng))
        for l in range(4)
    ]
    state, ensemble = ensemble_state(terms)
    form = decompose(state)
    acc = np.zeros((3, 3))
    for weight, vec_a, vec_b in ensemble.terms:
        ra = np.array([
            (vec_a.conj() @ (PAULI[i] @ vec_a)).real for i in range(3)
        ])
        rb = np.array([
            (vec_b.conj() @ (PAULI[i] @ vec_b)).real for i in range(3)
        ])
        acc += weight * np.outer(ra, rb)
    assert np.max(np.abs(form.beta - acc)) < 1e-12


def test_bloch_vectors_stay_in_unit_ball():
    for state in sample_random_state(31, dims=(2, 3), count=25):
        r_a = bloch_vector(state.rho_a, gell_mann_basis(state.dim_a))
        r_b = bloch_vector(state.rho_b, gell_mann_basis(state.dim_b))
        assert np.linalg.norm(r_a) <= 1.0 + 1e-12
        assert np.linalg.norm(r_b) <= 1.0 + 1e-12


def test_reconstruct_rejects_unphysical_form():
    form = decompose(bell_state())
    bad = type(form)(
        r_a=form.r_a, r_b=form.r_b, beta=2.5 * form.beta,
        dim_a=2, dim_b=2,
    )
    with pytest.raises(NotAStateError):
        reconstruct(bad)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_bloch_vector_matches_trace_loop(dim):
    # the contraction sums Tr(rho g) in its own order: bit for bit on a
    # qubit (at most two nonzero terms), to rounding on larger dimensions
    rng = np.random.default_rng(dim)
    rho = random_density(dim, rng)
    basis = gell_mann_basis(dim)
    c = math.sqrt(dim / (2.0 * (dim - 1)))
    loop = np.array([c * np.trace(rho @ g).real for g in basis])
    got = bloch_vector(rho, basis)
    if dim == 2:
        assert np.array_equal(got, loop)
    assert np.max(np.abs(got - loop)) < 1e-15
    stack = np.stack([random_density(dim, rng), rho])
    assert np.array_equal(_bloch_vectors(stack, basis)[1], got)


def dense_pair_stack(na, nb):
    # every g_i (x) g_j as one dense array: the oracle the term tables replace
    return np.array([[np.kron(ga, gb) for gb in gell_mann_basis(nb)]
                     for ga in gell_mann_basis(na)])


ORACLE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (3, 6), (6, 6)]


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_correlation_matrices_match_the_dense_contraction_bit_for_bit(dims):
    na, nb = dims
    n = na * nb
    rng = np.random.default_rng(n)
    pairs = dense_pair_stack(na, nb)
    coeff = math.sqrt(na * nb / (4.0 * (na - 1) * (nb - 1)))
    for _ in range(5):
        rho = random_density(n, rng)
        want = coeff * np.einsum("ijkl,lk->ij", pairs, rho).real
        assert np.array_equal(_correlation_matrices(rho, dims), want)
    stack = np.stack([random_density(n, rng) for _ in range(6)])
    want = coeff * np.einsum("ijkl,...lk->...ij", pairs, stack).real
    assert np.array_equal(_correlation_matrices(stack, dims), want)
    # a stack of one matrix, as d_max passes, and an empty stack
    assert np.array_equal(_correlation_matrices(stack[:1], dims), want[:1])
    assert _correlation_matrices(stack[:0], dims).shape == (0,) + pairs.shape[:2]


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_reconstruct_beta_term_matches_the_dense_scatter_bit_for_bit(dims):
    na, nb = dims
    n = na * nb
    rng = np.random.default_rng(100 + n)
    pairs = dense_pair_stack(na, nb)
    cab = math.sqrt(na * (na - 1) / 2.0) * math.sqrt(nb * (nb - 1) / 2.0)
    for _ in range(3):
        # each |g_i (x) g_j| < 2, so I + cab * sum beta_ij g_i (x) g_j stays positive
        shape = pairs.shape[:2]
        beta = rng.uniform(-1.0, 1.0, shape) / (2.0 * cab * shape[0] * shape[1])
        form = BlochForm(r_a=np.zeros(na * na - 1), r_b=np.zeros(nb * nb - 1), beta=beta,
                         dim_a=na, dim_b=nb)
        want = np.eye(n, dtype=complex)
        want += cab * np.einsum("ij,ijkl->kl", beta, pairs)
        want /= float(n)
        assert np.array_equal(reconstruct(form).rho, want)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_reconstruct_rebuilds_in_the_bases_of_the_form(dims):
    # every form is in the Gell-Mann bases, also one built by hand
    rng = np.random.default_rng(22)
    na, nb = dims
    state = BipartiteState(random_density(na * nb, rng), dims)
    form = decompose(state)
    assert np.abs(reconstruct(form).rho - state.rho).max() < 1e-14
    bare = BlochForm(r_a=np.array(form.r_a), r_b=np.array(form.r_b), beta=np.array(form.beta),
                     dim_a=na, dim_b=nb)
    assert np.array_equal(reconstruct(form).rho, reconstruct(bare).rho)


def test_term_tables_hold_only_the_nonzeros():
    assert len(_gell_mann_beta_terms(2, 2).pair) == 36
    assert len(_gell_mann_beta_terms(6, 6).pair) == 6400
    assert len(_gell_mann_beta_terms(8, 8).pair) == 21609


def test_cold_8x8_decompose_stays_small():
    # the dense stack of every g_i (x) g_j alone would be 63^2 * 64^2
    # complex values (260 MB); the term tables hold 21,609 nonzeros
    state = maximally_mixed((8, 8))
    gell_mann_basis.cache_clear()
    _gell_mann_beta_terms.cache_clear()
    tracemalloc.start()
    try:
        form = decompose(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert form.beta.shape == (63, 63)
    assert np.abs(form.beta).max() < 1e-15
    assert peak < 5 * 2**20
