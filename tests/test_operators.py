import numpy as np
import pytest
from scipy.linalg import expm

from cycshift.errors import DimensionError
from cycshift.operators import (
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    _pauli,
    gell_mann_basis,
    is_unitary,
    partial_trace,
    tensor,
)


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_basis_orthonormality(dim):
    basis = gell_mann_basis(dim)
    mats = list(basis)
    assert len(mats) == dim * dim - 1
    for i, gi in enumerate(mats):
        assert abs(np.trace(gi)) < 1e-14
        assert np.max(np.abs(gi - gi.conj().T)) < 1e-14
        for j, gj in enumerate(mats):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(gi @ gj) - want) < 1e-13


def test_basis_dim_two_is_pauli():
    basis = gell_mann_basis(2)
    assert np.array_equal(basis[0], SIGMA_1)
    assert np.array_equal(basis[1], SIGMA_2)
    assert np.array_equal(basis[2], SIGMA_3)


def test_basis_rejects_trivial_dim():
    with pytest.raises(DimensionError):
        gell_mann_basis(1)


def test_basis_matrices_are_read_only():
    basis = gell_mann_basis(3)
    with pytest.raises(ValueError):
        basis[0][0, 0] = 5.0


def test_basis_is_cached():
    assert gell_mann_basis(3) is gell_mann_basis(3)


def test_tensor_matches_explicit_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert abs(out[3 * i + k, 3 * j + l] - a[i, j] * b[k, l]) < 1e-15


def test_tensor_rejects_non_square():
    with pytest.raises(DimensionError):
        tensor(np.ones((2, 3)), np.eye(2))


def trace_out_loop(rho, da, db, keep):
    """Reference partial trace written as an explicit index sum."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for k in range(db):
                    out[i, j] += rho[i * db + k, j * db + k]
    else:
        out = np.zeros((db, db), dtype=complex)
        for k in range(db):
            for l in range(db):
                for i in range(da):
                    out[k, l] += rho[i * db + k, i * db + l]
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4)])
def test_partial_trace_matches_loop(dims):
    rng = np.random.default_rng(7)
    da, db = dims
    rho = random_density(da * db, rng)
    for keep in ("A", "B"):
        got = partial_trace(rho, dims, keep)
        want = trace_out_loop(rho, da, db, keep)
        assert np.max(np.abs(got - want)) < 1e-14
        assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_rejects_bad_keep():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), "C")


def test_hermitian_and_unitary_predicates():
    assert is_unitary(expm(1j * SIGMA_1))
    assert not is_unitary(2.0 * np.eye(2))


def test_pauli_of_a_stack_is_the_pauli_of_each_vector_bit_for_bit():
    axes = np.random.default_rng(4).standard_normal((2, 3, 3))
    axes[0, 0] = (0.6, -0.0, 0.8)
    stack = _pauli(axes)
    assert stack.shape == (2, 3, 2, 2)
    for i in range(2):
        for j in range(3):
            x, y, z = axes[i, j]
            assert stack[i, j].tobytes() == _pauli(axes[i, j]).tobytes()
            assert stack[i, j].tobytes() == (x * SIGMA_1 + y * SIGMA_2 + z * SIGMA_3).tobytes()
