import math

import mpmath
import numpy as np
import pytest

import cycshift.cyclic
from cycshift.bloch import BipartiteState, decompose
from cycshift.cyclic import (
    _block_layout,
    _conj_b,
    _direct_radicands,
    _qubit_b_closed_forms,
    _quadratic_form,
    _riemannian_gradients,
    _shift_from_radicand,
    apply_cyclic,
    beta_final,
    commutant_basis,
    conjugation_matrix,
    cyclic_from_matrix,
    d_max,
    make_cyclic,
    phase_cyclic,
    shift_correlation,
    shift_direct,
)
from cycshift.errors import ConsistencyError, MergedLevelsError, NotCyclicError, OperatorError
from cycshift.operators import GeneratorBasis, gell_mann_basis, partial_trace, tensor
from cycshift.states import (
    bell_state,
    cc5050,
    ensemble_state,
    haar_state_vector,
    haar_unitary,
    maximally_mixed,
    random_state_at,
    sample_random_state,
    sample_separable,
    schmidt_state,
    separable_at,
    werner_state,
)

PAULI = tuple(gell_mann_basis(2))


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_cyclic(state, rng):
    """A Haar unitary on each commutant block of rho_B."""
    structure = commutant_basis(state)
    blocks = [haar_unitary(size, rng) for size in structure.block_sizes]
    return make_cyclic(state, blocks, structure=structure)


def shift_loop(state, unit):
    """Reference shift sqrt(Tr rho^2 - Tr rho rho_f) from raw matrices."""
    u_full = np.kron(np.eye(state.dim_a), unit.matrix)
    rho_f = u_full @ state.rho @ u_full.conj().T
    value = (np.trace(state.rho @ state.rho) - np.trace(state.rho @ rho_f)).real
    return math.sqrt(max(value, 0.0))


def test_commutant_structure_nondegenerate():
    state = schmidt_state(0.6, 0.8)
    structure = commutant_basis(state)
    assert structure.block_sizes == (1, 1)
    assert np.all(np.diff(structure.eigenvalues) >= 0)


def test_commutant_structure_degenerate():
    structure = commutant_basis(bell_state())
    assert structure.block_sizes == (2,)


def test_commutant_merges_near_degenerate_levels():
    eps = 5e-13
    rho_b = np.diag([0.5 - eps, 0.5 + eps]).astype(complex)
    state = BipartiteState(np.kron(np.eye(2) / 2, rho_b), (2, 2))
    assert commutant_basis(state).block_sizes == (2,)
    assert commutant_basis(state, eps_deg=1e-14).block_sizes == (1, 1)


def test_make_cyclic_validates_blocks():
    state = schmidt_state(0.6, 0.8)
    with pytest.raises(ValueError):
        make_cyclic(state, [np.eye(1)])
    with pytest.raises(OperatorError):
        make_cyclic(state, [np.eye(1) * 2.0, np.eye(1)])


def test_make_cyclic_commutes_with_reduced_state():
    rng = np.random.default_rng(4)
    for state in sample_random_state(15, dims=(2, 3), count=5):
        unit = random_cyclic(state, rng)
        rho_b = partial_trace(state.rho, state.dims, "B")
        comm = unit.matrix @ rho_b - rho_b @ unit.matrix
        assert np.max(np.abs(comm)) < 1e-10


def test_cyclic_from_matrix_rejects_non_commuting():
    state = schmidt_state(0.6, 0.8)
    with pytest.raises(NotCyclicError):
        cyclic_from_matrix(state, PAULI[0])


def test_cyclic_from_matrix_rejects_coupling_of_unmerged_levels():
    # rho_B levels (1 -+ 1e-8)/2 stay apart at the default eps_deg; a loose
    # tol_cyclic admits sigma_1 in their eigenbasis, which swaps them
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.sqrt(0.5 + 0.5e-8), math.sqrt(0.5 - 0.5e-8)
    state = BipartiteState(np.outer(psi, psi.conj()), (2, 2))
    swap = PAULI[0]
    with pytest.raises(NotCyclicError, match=r"couples nearly degenerate .* leakage 1\.000e\+00"):
        cyclic_from_matrix(state, swap, tol_cyclic=1e-6)
    # merged by eps_deg, the same matrix is one block of the commutant
    unit = cyclic_from_matrix(state, swap, tol_cyclic=1e-6, eps_deg=1e-6)
    assert unit.structure.block_sizes == (2,)
    assert np.array_equal(unit.block_unitaries[0], swap)


def test_cyclic_from_matrix_rejects_non_unitary():
    state = schmidt_state(0.6, 0.8)
    with pytest.raises(OperatorError):
        cyclic_from_matrix(state, np.diag([1.0, 2.0]).astype(complex))


def test_phase_cyclic_letter_axes():
    state = maximally_mixed((2, 2))
    for axis, sigma in zip(("x", "y", "z"), PAULI):
        unit = phase_cyclic(state, 1.1, axis=axis)
        want = math.cos(0.55) * np.eye(2) + 1j * math.sin(0.55) * sigma
        assert np.max(np.abs(unit.matrix - want)) < 1e-12


def test_phase_cyclic_default_axis_follows_reduced_state():
    state = schmidt_state(0.6, 0.8)
    unit = phase_cyclic(state, 2.0)
    # r_b points along -z here, so the rotation must be about z
    off = abs(unit.matrix[0, 1]) + abs(unit.matrix[1, 0])
    assert off < 1e-13


def test_apply_cyclic_preserves_both_marginals():
    rng = np.random.default_rng(6)
    for dims in ((2, 2), (2, 3)):
        for state in sample_random_state(21, dims=dims, count=5):
            unit = random_cyclic(state, rng)
            final = apply_cyclic(state, unit)
            for side in ("A", "B"):
                before = partial_trace(state.rho, dims, side)
                after = partial_trace(final.rho, dims, side)
                assert np.max(np.abs(before - after)) < 1e-12


def test_shift_direct_matches_loop_reference():
    rng = np.random.default_rng(13)
    for state in sample_random_state(33, dims=(2, 2), count=10):
        unit = random_cyclic(state, rng)
        assert abs(shift_direct(state, unit) - shift_loop(state, unit)) < 1e-12


def test_shift_direct_rejects_foreign_unitary():
    # cyclic for the bell state (any unitary is), but not for schmidt
    unit = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NotCyclicError):
        shift_direct(schmidt_state(0.6, 0.8), unit)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_shift_formulas_agree(dims):
    rng = np.random.default_rng(17)
    for state in sample_random_state(55, dims=dims, count=20):
        unit = random_cyclic(state, rng)
        form = decompose(state)
        d_direct = shift_direct(state, unit)
        d_corr = shift_correlation(form, unit)
        assert abs(d_direct - d_corr) < 1e-10


def test_schmidt_phase_shift_law():
    for k1 in (0.2, 0.6, 1.0 / math.sqrt(2.0), 0.9):
        k2 = math.sqrt(1.0 - k1 * k1)
        state = schmidt_state(k1, k2)
        for phi in (0.0, 0.4, 1.3, math.pi, 4.4):
            unit = phase_cyclic(state, phi)
            want = 2.0 * abs(k1 * k2 * math.sin(phi / 2.0))
            assert abs(shift_direct(state, unit) - want) < 1e-12


def test_werner_rotation_shift_law():
    rng = np.random.default_rng(19)
    for p in (0.15, 0.5, 0.95):
        state = werner_state(p)
        for _ in range(4):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            unit = phase_cyclic(state, theta, axis=axis)
            want = p * abs(math.sin(theta / 2.0))
            assert abs(shift_direct(state, unit) - want) < 1e-12


def test_conjugation_matrix_is_special_orthogonal():
    rng = np.random.default_rng(23)
    for _ in range(6):
        u = haar_unitary(2, rng)
        r = conjugation_matrix(u, gell_mann_basis(2))
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_beta_final_preserves_norm():
    rng = np.random.default_rng(29)
    state = next(sample_random_state(41, dims=(2, 2), count=1))
    form = decompose(state)
    unit = random_cyclic(state, rng)
    bf = beta_final(form, unit)
    assert abs(np.linalg.norm(bf) - form.beta_norm) < 1e-12


def test_dmax_known_values():
    assert abs(d_max(bell_state()).d - 1.0) < 1e-12
    assert abs(d_max(schmidt_state(0.6, 0.8)).d - 0.96) < 1e-12
    assert abs(d_max(werner_state(0.7)).d - 0.7) < 1e-12
    assert abs(d_max(cc5050()).d - 1.0 / math.sqrt(2.0)) < 1e-12


def test_dmax_zero_for_product_states():
    rng = np.random.default_rng(37)
    vec_a = haar_state_vector(2, rng)
    vec_b = haar_state_vector(2, rng)
    state, _ = ensemble_state([(1.0, vec_a, vec_b)])
    assert d_max(state).d < 1e-12
    mixed = BipartiteState(
        tensor(random_density(2, rng), random_density(2, rng)), (2, 2)
    )
    assert d_max(mixed).d < 1e-12


def test_dmax_result_is_attained_by_returned_unitary():
    rng = np.random.default_rng(41)
    for state in sample_random_state(47, dims=(2, 2), count=6):
        result = d_max(state)
        achieved = shift_direct(state, result.unitary)
        assert abs(achieved - result.d) < 1e-9
        assert result.certified
        assert result.cross_check_residual < 1e-9


def test_generic_optimizer_matches_closed_forms():
    rng = np.random.default_rng(43)
    cases = list(sample_random_state(51, dims=(2, 2), count=6))
    cases += [werner_state(0.6), schmidt_state(0.8, 0.6)]
    for state in cases:
        closed = d_max(state)
        generic = d_max(state, method="generic", restarts=10,
                        rng=np.random.default_rng(3))
        assert abs(closed.d - generic.d) < 1e-8
        assert generic.method == "multistart"


def test_dmax_generic_path_for_larger_b():
    state = next(sample_random_state(53, dims=(2, 3), count=1))
    result = d_max(state, restarts=6, rng=np.random.default_rng(5), method="generic")
    assert result.method == "multistart"
    achieved = shift_direct(state, result.unitary)
    assert abs(achieved - result.d) < 1e-9


def test_dmax_rejects_bad_arguments():
    with pytest.raises(ValueError):
        d_max(bell_state(), method="annealing")
    with pytest.raises(ValueError):
        d_max(bell_state(), restarts=0)


def test_dmax_upper_bound_on_separable_samples():
    bound = 1.0 / math.sqrt(2.0)
    for state, _ in sample_separable(59, count=40):
        assert d_max(state).d <= bound + 1e-9


def test_dmax_passes_tol_cyclic_to_merged_blocks():
    state = schmidt_state(0.7071, math.sqrt(1.0 - 0.7071 ** 2))
    with pytest.raises(NotCyclicError):
        d_max(state, eps_deg=1e-4)
    result = d_max(state, eps_deg=1e-4, tol_cyclic=1e-4)
    assert result.method == "rotation-closed-form"
    assert result.unitary.structure.block_sizes == (2,)
    assert abs(result.d - 1.0) < 1e-6
    # the phase form at the default gap reaches the same value
    assert abs(result.d - d_max(state).d) < 1e-6


def maximally_entangled(n):
    vec = np.eye(n, dtype=complex).reshape(-1) / math.sqrt(n)
    return np.outer(vec, vec.conj())


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_conj_b_matches_kron(dims):
    rng = np.random.default_rng(61)
    na, nb = dims
    rho = random_density(na * nb, rng)
    u = haar_unitary(nb, rng)
    full = np.kron(np.eye(na), u)
    want = full @ rho @ full.conj().T
    assert np.max(np.abs(_conj_b(rho, u, dims) - want)) < 1e-14


def test_nan_tol_cyclic_fails_the_commutator_check():
    # sigma_x moves the Schmidt basis: its commutator with rho_B is 0.28
    with pytest.raises(NotCyclicError, match="commutator"):
        shift_direct(schmidt_state(0.6, 0.8), PAULI[0], tol_cyclic=float("nan"))


def test_shift_radicand_ceiling():
    assert _shift_from_radicand(1.0 + 5e-13) == 1.0
    with pytest.raises(ConsistencyError):
        _shift_from_radicand(1.0 + 5e-12)
    with pytest.raises(ConsistencyError):
        _shift_from_radicand(-5e-12)


def with_spectrum(rho, dims, spectrum, rng):
    # (I (x) T) rho (I (x) T)^dag with T = target^(1/2) rho_B^(-1/2) turns
    # rho_B into target = V diag(spectrum) V^dag for a Haar V
    na, nb = dims
    v = haar_unitary(nb, rng)
    w, e = np.linalg.eigh(partial_trace(rho, dims, "B"))
    t = (v * np.sqrt(spectrum)) @ v.conj().T @ (e / np.sqrt(w)) @ e.conj().T
    k = np.kron(np.eye(na), t)
    moved = k @ rho @ k.conj().T
    return BipartiteState((moved + moved.conj().T) / 2.0, dims)


def _form_cases():
    rng = np.random.default_rng(67)
    cases = [BipartiteState(random_density(6, rng), (2, 3)),
             BipartiteState(random_density(9, rng), (3, 3)),
             BipartiteState(random_density(8, rng), (2, 4))]
    # A maximally entangled qubit pair inside 2x3 under a local unitary:
    # rho_B has eigenvalues (0, 1/2, 1/2), blocks of size 1 and 2.
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[4] = 1.0 / math.sqrt(2.0)
    u = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
    rho = u @ np.outer(vec, vec.conj()) @ u.conj().T
    cases.append(BipartiteState((rho + rho.conj().T) / 2.0, (2, 3)))
    # A mixture of maximally entangled qutrit pairs rotated on A only:
    # rho_B = I/3, one block of size 3.
    rho = np.zeros((9, 9), dtype=complex)
    for weight in (0.6, 0.4):
        ua = np.kron(haar_unitary(3, rng), np.eye(3))
        rho += weight * ua @ maximally_entangled(3) @ ua.conj().T
    cases.append(BipartiteState((rho + rho.conj().T) / 2.0, (3, 3)))
    # two degenerate pairs of rho_B levels at 2x4
    cases.append(with_spectrum(random_density(8, rng), (2, 4), [0.15, 0.15, 0.35, 0.35], rng))
    return cases


FORM_CASES = pytest.mark.parametrize(
    "case, sizes", [(0, (1, 1, 1)), (1, (1, 1, 1)), (2, (1, 1, 1, 1)), (3, (1, 2)), (4, (3,)),
                    (5, (2, 2))],
    ids=["2x3", "3x3", "2x4", "2x3-blocks-1-2", "3x3-block-3", "2x4-blocks-2-2"])


def _form_of(case, sizes):
    state = _form_cases()[case]
    structure = commutant_basis(state)
    assert structure.block_sizes == sizes
    rho_rot = _conj_b(state.rho, structure.basis.conj().T, state.dims)
    return state, rho_rot, _quadratic_form(rho_rot, state.dims, sizes)


def _haar_points(sizes, count, rng):
    # rows of x: the entries of Haar block unitaries, laid out as _block_layout lists them
    rows, cols, _ = _block_layout(sizes)
    return np.array([_block_diagonal(sizes, lambda s: haar_unitary(s, rng))[rows, cols]
                     for _ in range(count)])


@FORM_CASES
def test_quadratic_form_is_the_direct_radicand(case, sizes):
    state, rho_rot, mmat = _form_of(case, sizes)
    assert np.abs(mmat - mmat.conj().T).max() < 1e-15
    assert np.linalg.eigvalsh(mmat).min() > -1e-15
    x = _haar_points(sizes, 10, np.random.default_rng(71 + case))
    w = np.zeros((len(x), state.dim_b, state.dim_b), dtype=complex)
    rows, cols, _ = _block_layout(sizes)
    w[:, rows, cols] = x
    # the dense difference form, in the original basis, knows nothing of M
    v = commutant_basis(state).basis
    dense = _direct_radicands(state.rho, v @ w @ v.conj().T, state.dims)
    form = state.purity() - np.einsum("rn,nm,rm->r", x.conj(), mmat, x).real
    assert np.abs(form - dense).max() < 1e-14


def _block_diagonal(sizes, block):
    # the block diagonal matrix of block(s) for each size s in turn
    w = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for s in sizes:
        w[start:start + s, start:start + s] = block(s)
        start += s
    return w


@FORM_CASES
def test_riemannian_gradient_matches_central_differences(case, sizes):
    _, _, mmat = _form_of(case, sizes)
    rng = np.random.default_rng(81 + case)
    rows, cols, groups = _block_layout(sizes)
    w = _block_diagonal(sizes, lambda s: haar_unitary(s, rng))
    _, grad = _riemannian_gradients(mmat, w[rows, cols][None], groups)
    for _ in range(4):
        # the curve W exp(t Omega) for a block skew-Hermitian Omega = i H
        h = _block_diagonal(sizes, lambda s: random_density(s, rng) - np.eye(s) / 2.0)
        lam, q = np.linalg.eigh(h)

        def value(t):
            y = (w @ (q * np.exp(1j * t * lam)) @ q.conj().T)[rows, cols]
            return np.vdot(y, mmat @ y).real

        numeric = (value(1e-5) - value(-1e-5)) / 2e-5
        assert abs(numeric - np.vdot(grad[0], (w @ (1j * h))[rows, cols]).real) < 1e-10


def test_generic_dmax_flags_a_run_out_of_budget():
    state = BipartiteState(maximally_entangled(3), (3, 3))
    cut = d_max(state, method="generic", max_iters=1, rng=0)
    assert cut.method == "multistart"
    assert cut.certified is False
    full = d_max(state, method="generic", rng=0)
    assert full.certified is True
    assert cut.nfev < full.nfev


def test_generic_dmax_maximally_entangled_qutrits():
    state = BipartiteState(maximally_entangled(3), (3, 3))
    result = d_max(state, rng=np.random.default_rng(0))
    assert result.method == "multistart"
    assert result.restarts == 16
    assert abs(result.d - 1.0) < 1e-9
    assert result.certified
    assert result.cross_check_residual < 1e-9


def test_generic_dmax_beats_phase_grid():
    rng = np.random.default_rng(73)
    state = BipartiteState(random_density(9, rng), (3, 3))
    result = d_max(state, rng=np.random.default_rng(1))
    assert result.unitary.structure.block_sizes == (1, 1, 1)
    # Every cyclic unitary of a nondegenerate rho_B is a phase diagonal
    # in its eigenbasis; scan two relative phases on a 200 x 200 grid.
    rho_b = state.rho.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)
    _, v = np.linalg.eigh(rho_b)
    full_v = np.kron(np.eye(3), v)
    blocks = (full_v.conj().T @ state.rho @ full_v).reshape(3, 3, 3, 3)
    grid = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    best = 0.0
    for t1 in grid:
        phases = np.exp(1j * np.stack([np.zeros_like(grid), np.full_like(grid, t1), grid], 1))
        # entry (a i, a' j) picks up phases[i] * conj(phases[j])
        factor = phases[:, None, :, None, None] * phases[:, None, None, None, :].conj()
        radicand = 0.5 * np.sum(np.abs(blocks * (1.0 - factor)) ** 2, axis=(1, 2, 3, 4))
        best = max(best, float(radicand.max()))
    assert result.d >= math.sqrt(best) - 1e-12
    assert abs(shift_direct(state, result.unitary) - result.d) < 1e-12


def test_shift_result_reports_optimizer_effort():
    state = next(sample_random_state(79, dims=(2, 3), count=1))
    result = d_max(state, restarts=4, rng=np.random.default_rng(2), method="generic")
    assert result.nfev >= 5
    assert 0.0 <= result.restart_spread < 1e-9
    closed = d_max(schmidt_state(0.6, 0.8))
    assert closed.nfev == 0 and closed.restart_spread == 0.0


def test_batch_rows_equal_single_state_dmax():
    # a mixed batch: phase-form rows, rotation-form rows (Werner, Bell,
    # maximally mixed) and a product state whose phase family is flat
    states = [random_state_at(5, 0), werner_state(0.3), random_state_at(5, 1), bell_state(),
              maximally_mixed((2, 2)), schmidt_state(0.0, 1.0), cc5050(), werner_state(0.9)]
    forms = _qubit_b_closed_forms(np.stack([s.rho for s in states]), (2, 2))
    for i, state in enumerate(states):
        single = d_max(state)
        assert forms.d[i] == single.d
        assert forms.residual[i] == single.cross_check_residual
        assert np.array_equal(forms.unitary[i], single.unitary.matrix)
        assert forms.merged[i] == (single.method == "rotation-closed-form")
        assert np.linalg.norm(forms.beta[i]) == decompose(state).beta_norm


def test_qutrit_a_side_takes_the_batched_closed_forms():
    states = [random_state_at(9, i, dims=(3, 2)) for i in range(3)]
    rho = random_state_at(4, 0, dims=(2, 3)).rho  # the same state with A and B exchanged
    states.append(BipartiteState(rho.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6), (3, 2)))
    # mp_shift at the returned half turn, to 20 digits
    want = [0.29378061212750855053, 0.32018084150794400175, 0.34741089908639247409,
            0.40957552875727049265]
    forms = _qubit_b_closed_forms(np.stack([s.rho for s in states]), (3, 2))
    for i, state in enumerate(states):
        result = d_max(state)
        assert result.method == "phase-closed-form"
        assert abs(result.d - want[i]) <= 2.0 * math.ulp(want[i])
        assert forms.d[i] == result.d
        generic = d_max(state, method="generic", restarts=4, rng=np.random.default_rng(1))
        assert abs(generic.d - result.d) < 1e-8
    # rho_B = I/2 on a 3x2 state: the rotation form
    rng = np.random.default_rng(12)
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    psi = np.kron(haar_unitary(3, rng), np.eye(2)) @ psi
    result = d_max(BipartiteState(np.outer(psi, psi.conj()), (3, 2)))
    assert result.method == "rotation-closed-form"
    assert result.d == 1.0


def mp_shift(rho, u, dims):
    """sqrt(||rho - rho_f||^2 / 2) at 40 digits, from the float entries of rho and U."""
    na, nb = dims
    with mpmath.workdps(40):
        r, um = mpmath.matrix(rho.tolist()), mpmath.matrix(np.asarray(u).tolist())
        k = mpmath.zeros(na * nb)
        for a in range(na):
            for i in range(nb):
                for j in range(nb):
                    k[a * nb + i, a * nb + j] = um[i, j]
        diff = r - k * r * k.H
        return mpmath.sqrt(sum(abs(x) ** 2 for x in diff) / 2)


def test_small_qubit_b_shifts_match_a_40_digit_oracle():
    # |r_B| near 1 and d of 3e-4 and 1e-3: a closed form through
    # Tr M - u^T M u loses five digits here to cancellation
    states = [separable_at(0, index)[0] for index in (75, 624)]
    forms = _qubit_b_closed_forms(np.stack([s.rho for s in states]), (2, 2))
    for i, state in enumerate(states):
        result = d_max(state)
        for d, u in ((result.d, result.unitary.matrix), (forms.d[i], forms.unitary[i])):
            exact = mp_shift(state.rho, u, state.dims)
            assert d < 2e-3
            assert abs(d - exact) <= 1e-12 * exact


@pytest.mark.parametrize("state, method", [
    (random_state_at(11, 0), "phase-closed-form"),
    (separable_at(0, 75)[0], "phase-closed-form"),
    (random_state_at(11, 1, (3, 2)), "phase-closed-form"),
    (werner_state(0.7), "rotation-closed-form"),
    (bell_state(), "rotation-closed-form"),
    (random_state_at(11, 2, (2, 3)), "qutrit-phase-closed-form"),
    (random_state_at(11, 3, (3, 3)), "qutrit-phase-closed-form"),
    (random_state_at(11, 4, (2, 4)), "multistart"),
    (maximally_mixed((2, 3)), "multistart"),
])
def test_d_is_the_formula_at_the_returned_unitary(state, method):
    result = d_max(state, restarts=3, rng=0)
    assert result.method == method
    if result.formula == "direct":
        assert result.d == shift_direct(state, result.unitary)
    else:
        assert result.formula == "correlation"
        assert result.d == shift_correlation(decompose(state), result.unitary)


def test_batch_names_the_row_whose_cross_check_fails():
    rhos = np.stack([random_state_at(6, i).rho for i in range(6)])
    # an anti-Hermitian part with vanishing marginals moves the direct
    # route but not the correlation matrix
    rhos[3] += 0.05j * np.kron(PAULI[0], PAULI[2])
    with pytest.raises(ConsistencyError, match=r"^row 103: direct and correlation"):
        _qubit_b_closed_forms(rhos, (2, 2), first_index=100)
    # the lowest failing row is the one reported
    rhos[1] += 0.05j * np.kron(PAULI[0], PAULI[2])
    with pytest.raises(ConsistencyError, match=r"^row 101: "):
        _qubit_b_closed_forms(rhos, (2, 2), first_index=100)


def near_maximally_mixed(dims, index):
    """A random state mixed 1:19 with I/n: every level of rho_B lies within 0.05 of 1/dB."""
    n = dims[0] * dims[1]
    return BipartiteState(0.05 * random_state_at(0, index, dims).rho + 0.95 * np.eye(n) / n, dims)


@pytest.mark.parametrize("state", [schmidt_state(0.8, 0.6)] + [
    near_maximally_mixed(dims, i) for dims in ((2, 3), (3, 3), (2, 4)) for i in range(3)
], ids=["schmidt"] + [f"{a}x{b}-{i}" for a, b in ((2, 3), (3, 3), (2, 4)) for i in range(3)])
def test_merged_levels_are_a_bad_option_not_a_bug(state):
    # eps_deg 0.5 merges distinct levels of rho_B and tol_cyclic 1.0 admits
    # a unitary that mixes them: the qubit rotation form, the generic
    # optimizer on one merged block of a qutrit or ququart B side
    with pytest.raises(MergedLevelsError, match="--eps-deg.*--tol-cyclic"):
        d_max(state, eps_deg=0.5, tol_cyclic=1.0)
    assert issubclass(MergedLevelsError, ValueError)
    assert not issubclass(MergedLevelsError, ConsistencyError)


def test_merged_levels_message_names_the_widest_merged_gap():
    # the qubit message, and on a qutrit B side the adjacent pair of
    # merged levels that lie furthest apart
    with pytest.raises(MergedLevelsError) as info:
        d_max(schmidt_state(0.8, 0.6), eps_deg=0.5, tol_cyclic=1.0)
    assert str(info.value) == (
        "direct and correlation shifts disagree by 3.920e-02 (squared) at the optimum: "
        "eps_deg merged the distinct rho_B levels 0.36 and 0.64, and tol_cyclic 1.0e+00 "
        "admitted a unitary that commutes with rho_B only to 2.800e-01; lower --eps-deg "
        "or --tol-cyclic")
    state = near_maximally_mixed((2, 3), 0)
    w = np.linalg.eigvalsh(state.rho_b)
    widest = int(np.argmax(np.diff(w)))
    with pytest.raises(MergedLevelsError,
                       match=f"levels {w[widest]:.6g} and {w[widest + 1]:.6g},"):
        d_max(state, eps_deg=0.5, tol_cyclic=1.0)


def _half_turn(axis):
    return 1j * sum(c * sigma for c, sigma in zip(axis, PAULI))


def test_qubit_b_optimum_is_the_half_turn_about_its_axis():
    # Tr(beta^T beta [u]x) vanishes, so the phase form's angle is exactly
    # pi and its unitary is +i u.sigma, never -i u.sigma by rounding.
    states = [random_state_at(21, i) for i in range(100)]
    states += [random_state_at(22, i, dims=(3, 2)) for i in range(100)]
    for state in states:
        result = d_max(state)
        assert result.method == "phase-closed-form"
        assert result.params["phi"] == math.pi
        want = _half_turn(result.params["axis"])
        assert np.abs(result.unitary.matrix - want).max() < 1e-14
    mixed = [random_state_at(23, 0), werner_state(0.4), bell_state(), maximally_mixed((2, 2)),
             schmidt_state(0.0, 1.0), cc5050(), random_state_at(23, 1)]
    forms = _qubit_b_closed_forms(np.stack([s.rho for s in mixed]), (2, 2))
    flat = forms.d == 0.0
    assert list(flat) == [False, False, False, True, True, False, False]
    assert np.all(forms.phi == np.where(flat, 0.0, math.pi))
    for i in range(len(mixed)):
        want = np.eye(2) if forms.phi[i] == 0.0 else _half_turn(forms.axis[i])
        assert np.abs(forms.unitary[i] - want).max() < 1e-14


@pytest.mark.parametrize("gap", [1e-8, 1e-7, 1e-6])
def test_nearly_degenerate_levels_keep_the_phase_form(gap):
    # rho_B levels (1 -+ gap)/2 in a random local frame: the unitary is
    # built in the eigenbasis of rho_B, so it leaks nowhere between them
    rng = np.random.default_rng(31)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.sqrt(0.5 + gap / 2.0)
    psi[3] = math.sqrt(0.5 - gap / 2.0)
    for _ in range(20):
        moved = np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ psi
        rho = np.outer(moved, moved.conj())
        result = d_max(BipartiteState((rho + rho.conj().T) / 2.0, (2, 2)))
        assert result.method == "phase-closed-form"
        assert result.params["phi"] == math.pi
        assert abs(result.d - math.sqrt(1.0 - gap * gap)) < 1e-9


def _rho_b_eigenbasis_j01(rho):
    # J_01 = 2 sum_{a,a'} |rho_(a 0),(a' 1)|^2 in the eigenbasis of rho_B
    blocks = rho.reshape(2, 2, 2, 2)
    _, v = np.linalg.eigh(np.einsum("aiaj->ij", blocks))
    rotated = np.einsum("ki,aibj,jl->akbl", v.conj().T, blocks, v)
    return 2.0 * float((np.abs(rotated[:, 0, :, 1]) ** 2).sum())


def test_qubit_b_closed_form_is_the_phase_triangle_with_one_coupling():
    # with two levels the radicand is J_01 (1 - cos theta), so d^2 = 2 J_01
    for i in range(50):
        state = random_state_at(41, i)
        assert commutant_basis(state).block_sizes == (1, 1)
        assert abs(d_max(state).d ** 2 - 2.0 * _rho_b_eigenbasis_j01(state.rho)) < 1e-12


@pytest.mark.parametrize("q", [1e-6, 1e-12])
def test_qutrit_closed_form_with_zero_and_tiny_couplings(q):
    # 0.6 |Phi><Phi| + q |0,2><0,2| + (0.4 - q) |1,0><1,0| couples only the
    # B levels 0 and 1, so J_02 = J_12 = 0 up to rounding in the eigenbasis
    phi = np.zeros(6)
    phi[0] = phi[4] = 1.0 / math.sqrt(2.0)
    rho = 0.6 * np.outer(phi, phi) + q * np.diag(np.eye(6)[2]) + (0.4 - q) * np.diag(np.eye(6)[3])
    state = BipartiteState(rho.astype(complex), (2, 3))
    result = d_max(state)
    assert result.method == "qutrit-phase-closed-form"
    assert math.isfinite(result.d) and all(math.isfinite(t) for t in result.params["phases"])
    assert abs(result.d - 0.6) < 1e-12
    assert abs(result.d - d_max(state, method="generic", rng=0).d) < 1e-10


def test_qutrit_closed_form_on_a_schmidt_state():
    # sqrt(0.5)|00> + sqrt(0.3)|11> + sqrt(0.2)|22>: J_ij = 2 p_i p_j and
    # c_i = sqrt(2) p_i sit on the triangle's boundary, 2 c_0 = sum c, and
    # turning level 0 by pi gives R = 4 p_0 (p_1 + p_2) = 1
    psi = np.zeros(9)
    for k, p in enumerate((0.5, 0.3, 0.2)):
        psi[4 * k] = math.sqrt(p)
    state = BipartiteState(np.outer(psi, psi).astype(complex), (3, 3))
    result = d_max(state)
    assert result.method == "qutrit-phase-closed-form"
    assert result.restarts == 0 and result.nfev == 0 and result.restart_spread == 0.0
    assert abs(result.d - 1.0) < 1e-12
    assert abs(result.d - d_max(state, method="generic", rng=0).d) < 1e-10


def test_qutrit_b_with_a_degenerate_pair_takes_the_optimizer():
    psi = np.zeros(9)
    for k, p in enumerate((0.4, 0.4, 0.2)):
        psi[4 * k] = math.sqrt(p)
    state = BipartiteState(np.outer(psi, psi).astype(complex), (3, 3))
    result = d_max(state, restarts=2, rng=0)
    assert result.unitary.structure.block_sizes == (1, 2)
    assert result.method == "multistart"


def test_shift_correlation_reads_the_form_in_its_own_bases():
    # a form decomposed in a permuted Pauli basis, where the canonical
    # reading of its r_B gives a rho_B the phase unitary does not commute with
    state = random_state_at(3, 0)
    permuted = GeneratorBasis(dim=2, matrices=tuple(PAULI[i] for i in (2, 0, 1)))
    unit = phase_cyclic(state, 1.3)
    form = decompose(state, permuted, permuted)
    want = shift_direct(state, unit)
    assert abs(want - 0.2883) < 1e-4
    assert abs(shift_correlation(form, unit) - want) < 1e-12
    assert abs(np.linalg.norm(beta_final(form, unit)) - form.beta_norm) < 1e-12
    # beta_f in the permuted basis is the canonical beta_f permuted
    canonical = beta_final(decompose(state), unit)
    assert np.abs(beta_final(form, unit) - canonical[np.ix_((2, 0, 1), (2, 0, 1))]).max() < 1e-12


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(cycshift.cyclic, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cycshift.cyclic, name, counting)
    return calls


def test_qubit_b_d_max_computes_each_commutator_once(monkeypatch):
    # one against rho_B (cyclic_from_matrix's check, which shift_direct's
    # reuses) and one against rho_B rebuilt from r_B (shift_correlation's)
    calls = _count_calls(monkeypatch, "_check_commutes")
    d_max(schmidt_state(0.6, 0.8))
    assert len(calls) == 2
    calls.clear()
    _qubit_b_closed_forms(np.stack([schmidt_state(0.6, 0.8).rho, werner_state(0.5).rho]), (2, 2))
    assert len(calls) == 2


@pytest.mark.parametrize("state, method", [
    (schmidt_state(0.6, 0.8), "phase-closed-form"),
    (bell_state(), "rotation-closed-form"),
    (random_state_at(3, 0, (2, 3)), "qutrit-phase-closed-form"),
    (maximally_mixed((2, 3)), "multistart"),
    (random_state_at(3, 0, (2, 4)), "multistart"),
])
def test_every_d_max_unitary_gets_the_checks_of_cyclic_from_matrix_once(
        monkeypatch, state, method):
    calls = _count_calls(monkeypatch, "_check_cyclic")
    result = d_max(state, restarts=2, rng=0)
    assert result.method == method
    assert len(calls) == 1
    rebuilt = cyclic_from_matrix(state, result.unitary.matrix)
    for got, want in zip(result.unitary.block_unitaries, rebuilt.block_unitaries):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
