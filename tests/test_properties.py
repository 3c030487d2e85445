"""Property tests of d_max against oracles that do not use its code."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cycshift.bloch import BipartiteState  # noqa: E402
from cycshift.cyclic import (  # noqa: E402
    EPS_DEGENERATE,
    commutant_basis,
    d_max,
    make_cyclic,
    shift_direct,
)
from cycshift.errors import ConsistencyError  # noqa: E402

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def haar_vector(n, rng):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def haar_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seeds)
def test_pure_two_qubit_dmax_gives_the_horodecki_chsh_value(seed):
    # Horodecki, Horodecki and Horodecki, Phys. Lett. A 200, 340 (1995):
    # the largest CHSH value of a two-qubit state is 2 sqrt(m1 + m2), the
    # two largest eigenvalues of T^T T with T_ij = Tr(rho sigma_i sigma_j).
    psi = haar_vector(4, np.random.default_rng(seed))
    rho = np.outer(psi, psi.conj())
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    m = np.linalg.eigvalsh(t.T @ t)
    horodecki = 2.0 * math.sqrt(m[1] + m[2])
    d = d_max(BipartiteState(rho, (2, 2))).d
    assert abs(2.0 * math.sqrt(1.0 + d * d) - horodecki) < 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seeds, st.sampled_from([(2, 2), (3, 2)]))
def test_dmax_is_invariant_under_local_unitaries(seed, dims):
    rng = np.random.default_rng(seed)
    na, nb = dims
    rho = random_density(na * nb, rng)
    local = np.kron(haar_unitary(na, rng), haar_unitary(nb, rng))
    moved = local @ rho @ local.conj().T
    d = d_max(BipartiteState(rho, dims)).d
    d_moved = d_max(BipartiteState((moved + moved.conj().T) / 2.0, dims)).d
    assert abs(d - d_moved) < 1e-9


def werner(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seeds, st.sampled_from(["2x2", "3x2", "werner"]))
def test_dmax_bounds_every_cyclic_unitary(seed, kind):
    # a Haar unitary on each commutant block of rho_B moves the state by
    # no more than d_max
    rng = np.random.default_rng(seed)
    if kind == "werner":
        state = BipartiteState(werner(rng.uniform()), (2, 2))
    else:
        dims = (2, 2) if kind == "2x2" else (3, 2)
        state = BipartiteState(random_density(dims[0] * dims[1], rng), dims)
    structure = commutant_basis(state)
    best = d_max(state).d
    for _ in range(5):
        blocks = [haar_unitary(size, rng) for size in structure.block_sizes]
        unit = make_cyclic(state, blocks, structure=structure)
        assert best >= shift_direct(state, unit) - 1e-12


def random_density_of_rank(n, rank, rng):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seeds, st.sampled_from([2, 3, 4]), st.sampled_from([1, 2, None]))
def test_qutrit_closed_form_matches_the_optimizer(seed, na, rank):
    rng = np.random.default_rng(seed)
    n = 3 * na
    state = BipartiteState(random_density_of_rank(n, rank or n, rng), (na, 3))
    assert commutant_basis(state).block_sizes == (1, 1, 1)
    result = d_max(state)
    assert result.method == "qutrit-phase-closed-form"
    assert result.certified
    assert abs(result.d - d_max(state, method="generic", rng=seed).d) < 1e-10
    u = result.unitary.matrix
    assert np.abs(state.rho_b @ u - u @ state.rho_b).max() < 1e-12


def with_b_spectrum(rho, na, spectrum, rng):
    # (I (x) T) rho (I (x) T)^dag with T = target^(1/2) rho_B^(-1/2) turns
    # rho_B into target = V diag(spectrum) V^dag for a Haar V
    nb = len(spectrum)
    v = haar_unitary(nb, rng)
    rho_b = np.einsum("ajak->jk", rho.reshape(na, nb, na, nb))
    w, e = np.linalg.eigh(rho_b)
    t = (v * np.sqrt(spectrum)) @ v.conj().T @ (e / np.sqrt(w)) @ e.conj().T
    k = np.kron(np.eye(na), t)
    moved = k @ rho @ k.conj().T
    return (moved + moved.conj().T) / 2.0


@settings(max_examples=24, derandomize=True, deadline=None)
@given(seeds, st.sampled_from([2, 3]), st.sampled_from(["nondegenerate", "degenerate"]))
def test_dmax_bounds_every_cyclic_unitary_on_a_qutrit(seed, na, kind):
    # the qutrit closed form (three levels) and the optimizer (a level
    # pair) both bound the shift of Haar unitaries on the commutant blocks
    rng = np.random.default_rng(seed)
    rho = random_density(3 * na, rng)
    if kind == "degenerate":
        low = rng.uniform(0.05, 0.3)
        rho = with_b_spectrum(rho, na, [low, (1.0 - low) / 2.0, (1.0 - low) / 2.0], rng)
    state = BipartiteState(rho, (na, 3))
    structure = commutant_basis(state)
    result = d_max(state, rng=seed)
    if kind == "degenerate":
        assert structure.block_sizes == (1, 2)
    else:
        assert structure.block_sizes == (1, 1, 1)
        assert result.method == "qutrit-phase-closed-form"
    for _ in range(5):
        blocks = [haar_unitary(size, rng) for size in structure.block_sizes]
        unit = make_cyclic(state, blocks, structure=structure)
        assert result.d >= shift_direct(state, unit) - 1e-12


# Two qubit-B levels just above eps_deg: the phase closed form takes its
# d from the Bloch axis of rho_B, whose direction is only good to about
# eps / gap, but builds its unitary in the eigenbasis, and its own
# consistency check then rejects the row (see CHANGES.md).
_QUBIT_AXIS_DEFECT = pytest.mark.xfail(
    strict=True, raises=ConsistencyError,
    reason="qubit phase closed form: Bloch-axis d against an eigenbasis unitary")


@pytest.mark.parametrize("nb, side", [(2, 0.9), pytest.param(2, 1.1, marks=_QUBIT_AXIS_DEFECT),
                                      (3, 0.9), (3, 1.1)])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(seeds, st.sampled_from([2, 3]))
def test_generic_and_closed_forms_agree_at_the_merging_threshold(nb, side, seed, na):
    # The closest rho_B levels sit a tenth of eps_deg below it (they merge)
    # or above it (they stay apart); the optimizer and the closed form see
    # the same commutant either way.
    rng = np.random.default_rng(seed)
    gap = side * EPS_DEGENERATE
    if nb == 2:
        spectrum = [0.5 - gap / 2.0, 0.5 + gap / 2.0]
    else:
        low = rng.uniform(0.1, 0.25)
        spectrum = [low, (1.0 - low - gap) / 2.0, (1.0 - low + gap) / 2.0]
    rho = with_b_spectrum(random_density(na * nb, rng), na, spectrum, rng)
    state = BipartiteState(rho, (na, nb))
    merged = side < 1.0
    assert len(commutant_basis(state).blocks) == (nb - 1 if merged else nb)
    closed = d_max(state, rng=seed)
    generic = d_max(state, method="generic", rng=seed)
    assert generic.method == "multistart" and generic.certified
    if nb == 3 and merged:
        # no closed form for a level pair: the optimizer runs either way,
        # and its commutant holds that of the split levels
        assert closed.method == "multistart"
        split = d_max(state, eps_deg=EPS_DEGENERATE / 2.0)
        assert split.method == "qutrit-phase-closed-form"
        assert generic.d >= split.d - 1e-9
    else:
        assert closed.method.endswith("closed-form")
    assert abs(closed.d - generic.d) < 1e-9
