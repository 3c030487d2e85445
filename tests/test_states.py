import math

import numpy as np
import pytest

from cycshift.errors import (
    DimensionError,
    NormalizationError,
    NotAStateError,
)
from cycshift.bloch import _purities, _sq_norms
from cycshift.operators import partial_trace
from cycshift.states import (
    _random_block,
    _schmidt_block,
    _separable_block,
    _werner_block,
    bell_state,
    cc5050,
    ensemble_state,
    haar_state_vector,
    haar_unitary,
    maximally_mixed,
    random_state_at,
    resolve_builtin,
    sample_random_state,
    sample_separable,
    schmidt_state,
    separable_at,
    state_from_json,
    state_to_json,
    werner_state,
)


def test_schmidt_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        schmidt_state(0.9, 0.9)


def test_werner_rejects_out_of_range():
    with pytest.raises(NotAStateError):
        werner_state(1.2)
    with pytest.raises(NotAStateError):
        werner_state(-0.5)


def test_werner_matrix_form():
    state = werner_state(0.4)
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / math.sqrt(2.0)
    singlet[2] = -1.0 / math.sqrt(2.0)
    want = 0.4 * np.outer(singlet, singlet.conj()) + 0.6 * np.eye(4) / 4.0
    assert np.max(np.abs(state.rho - want)) < 1e-15


def test_cc5050_matrix_form():
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 0.5
    want[3, 3] = 0.5
    assert np.max(np.abs(cc5050().rho - want)) < 1e-15


def test_maximally_mixed():
    state = maximally_mixed((2, 3))
    assert state.dims == (2, 3)
    assert np.max(np.abs(state.rho - np.eye(6) / 6.0)) < 1e-15


def test_ensemble_validation():
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        ensemble_state([])
    with pytest.raises(ValueError):
        ensemble_state([(-0.5, v, v), (1.5, v, v)])
    with pytest.raises(NormalizationError):
        ensemble_state([(0.4, v, v), (0.4, v, v)])
    with pytest.raises(NormalizationError):
        ensemble_state([(1.0, 2.0 * v, v)])
    with pytest.raises(DimensionError):
        ensemble_state([
            (0.5, v, v),
            (0.5, np.array([1.0, 0.0, 0.0], dtype=complex), v),
        ])


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        u = haar_unitary(dim, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_states_are_isotropic():
    # the mean Bloch vector of many Haar qubit states must vanish
    rng = np.random.default_rng(7)
    acc = np.zeros(3)
    count = 4000
    for _ in range(count):
        v = haar_state_vector(2, rng)
        acc[0] += 2.0 * (v[0].conjugate() * v[1]).real
        acc[1] += 2.0 * (v[0].conjugate() * v[1]).imag
        acc[2] += (abs(v[0]) ** 2 - abs(v[1]) ** 2)
    assert np.linalg.norm(acc / count) < 0.05


def test_samplers_are_deterministic_and_index_addressable():
    run_a = [state.state_id for state, _ in sample_separable(11, count=5)]
    run_b = [state.state_id for state, _ in sample_separable(11, count=5)]
    assert run_a == run_b
    assert len(set(run_a)) == 5
    state_3, _ = separable_at(11, 3)
    assert state_3.state_id == run_a[3]

    ids = [s.state_id for s in sample_random_state(13, count=4)]
    assert ids == [s.state_id for s in sample_random_state(13, count=4)]
    assert random_state_at(13, 2).state_id == ids[2]


def test_separable_sampler_respects_m_range():
    for _, ensemble in sample_separable(17, count=10, m_range=(3, 5)):
        assert 3 <= ensemble.m <= 5


def test_sampler_argument_validation():
    with pytest.raises(ValueError):
        separable_at(1, 0, m_range=(0, 4))
    with pytest.raises(ValueError):
        random_state_at(1, 0, dims=(2, 2), rank=9)


def test_json_roundtrip():
    state = next(sample_random_state(23, dims=(2, 3), count=1))
    data = state_to_json(state)
    back = state_from_json(data)
    assert back.dims == state.dims
    assert np.max(np.abs(back.rho - state.rho)) < 1e-15


def test_json_schema_validation():
    good = state_to_json(bell_state())
    with pytest.raises(ValueError):
        state_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        state_from_json({"matrix": good["matrix"]})
    with pytest.raises(ValueError):
        state_from_json({"dims": [2, 2], "matrix": good["matrix"][:-1]})
    with pytest.raises(ValueError):
        state_from_json({"dims": [2, 2],
                         "matrix": good["matrix"][:-1] + ["oops"]})
    with pytest.raises(ValueError):
        state_from_json({"dims": [2.0, 2.0], "matrix": good["matrix"]})


def test_resolve_builtin():
    assert resolve_builtin("bell").state_id == bell_state().state_id
    assert resolve_builtin("cc5050").state_id == cc5050().state_id
    k1 = 0.6
    want = schmidt_state(k1, math.sqrt(1 - k1 * k1))
    assert resolve_builtin("schmidt:0.6").state_id == want.state_id
    assert resolve_builtin("werner:0.5").state_id == werner_state(0.5).state_id
    assert resolve_builtin("maxmixed:2x3").dims == (2, 3)
    assert resolve_builtin("not-a-state") is None
    with pytest.raises(ValueError):
        resolve_builtin("schmidt:abc")
    with pytest.raises(ValueError):
        resolve_builtin("schmidt:1.5")
    with pytest.raises(ValueError):
        resolve_builtin("bell:1")
    with pytest.raises(ValueError):
        resolve_builtin("maxmixed:6")


# Oracles for the block builders: the per-sample, per-term construction
# they replace, written out with the scalar numpy calls (np.kron, np.outer,
# np.linalg.norm, np.vdot) and compared with np.array_equal.

def _oracle_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _oracle_separable(seed, index, da=2, db=2, lo=2, hi=8):
    rng = _oracle_rng(seed, index)
    m = int(rng.integers(lo, hi + 1))
    weights = rng.dirichlet(np.ones(m))
    rho = np.zeros((da * db, da * db), dtype=complex)
    terms = []
    for l in range(m):
        vecs = []
        for dim in (da, db):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vecs.append(z / np.linalg.norm(z))
        joint = np.kron(vecs[0], vecs[1])
        rho += float(weights[l]) * np.outer(joint, joint.conj())
        terms.append((float(weights[l]), vecs[0], vecs[1]))
    return rho, terms


def _oracle_random(seed, index, n=4, r=4):
    rng = _oracle_rng(seed, index)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return rho


@pytest.mark.parametrize("seed", [0, 42])
def test_separable_block_matches_the_per_term_construction(seed):
    rhos, draws = _separable_block(seed, 0, 2000)
    for index in range(2000):
        rho, want = _oracle_separable(seed, index)
        assert len(draws[index][0]) == len(want)
        assert np.array_equal(rhos[index], rho), index
    for index in (0, 7, 1999, 5000):
        state, ensemble = separable_at(seed, index)
        rho, want = _oracle_separable(seed, index)
        assert np.array_equal(state.rho, rho)
        assert ensemble.m == len(want)
        for (weight, vec_a, vec_b), (w, a, b) in zip(ensemble.terms, want):
            assert weight == w and np.array_equal(vec_a, a) and np.array_equal(vec_b, b)
    ensembles = [ensemble for _, ensemble in sample_separable(seed, count=50)]
    for index, ensemble in enumerate(ensembles):
        _, want = _oracle_separable(seed, index)
        assert [w for w, _, _ in ensemble.terms] == [w for w, _, _ in want]
        assert np.array_equal([a for _, a, _ in ensemble.terms], [a for _, a, _ in want])


def test_separable_block_matches_on_unequal_dims():
    rhos, _ = _separable_block(3, 10, 60, dims=(2, 3), m_range=(1, 4))
    for row, index in enumerate(range(10, 60)):
        rho, _ = _oracle_separable(3, index, da=2, db=3, lo=1, hi=4)
        assert np.array_equal(rhos[row], rho), index


@pytest.mark.parametrize("seed", [0, 42])
def test_random_block_matches_the_per_sample_construction(seed):
    rhos = _random_block(seed, 0, 2000)
    purities = _purities(rhos)
    for index in range(2000):
        rho = _oracle_random(seed, index)
        assert np.array_equal(rhos[index], rho), index
        assert purities[index] == np.vdot(rho, rho).real
    for index in (0, 7, 1999, 5000):
        assert np.array_equal(random_state_at(seed, index).rho, _oracle_random(seed, index))
    rank_two = _random_block(seed, 5, 25, dims=(2, 3), rank=2)
    for row, index in enumerate(range(5, 25)):
        assert np.array_equal(rank_two[row], _oracle_random(seed, index, n=6, r=2))


def test_grid_blocks_match_the_per_value_construction():
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    grid = np.linspace(0.0, 1.0, 101)
    werner = _werner_block(grid)
    k2 = np.sqrt(np.maximum(0.0, 1.0 - grid * grid))
    schmidt = _schmidt_block(grid, k2)
    for row, value in enumerate(grid.tolist()):
        want = (value * np.outer(singlet, singlet.conj())
                + (1.0 - value) * np.eye(4) / 4.0)
        assert np.array_equal(werner[row], want)
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = value, math.sqrt(max(0.0, 1.0 - value * value))
        assert np.array_equal(schmidt[row], np.outer(vec, vec.conj()))


def test_stacked_squared_norm_is_the_blas_dot():
    # the property the separable block's bit identity rests on: a stacked
    # (1, k) @ (k, 1) matmul rounds as x.dot(x) (BLAS ddot) does, also on
    # the strided real and imaginary views np.linalg.norm reads
    rng = np.random.default_rng(2026)
    z = rng.standard_normal((20_000, 2)) + 1j * rng.standard_normal((20_000, 2))
    for x in (z.real, z.imag, rng.standard_normal((20_000, 2))):
        sq = _sq_norms(x)
        assert all(sq[k] == x[k].dot(x[k]) for k in range(len(x)))
    norms = np.sqrt(_sq_norms(z.real) + _sq_norms(z.imag))
    assert all(norms[k] == np.linalg.norm(z[k]) for k in range(len(z)))


def test_grid_blocks_reject_their_lowest_bad_value():
    with pytest.raises(NotAStateError, match=r"^werner parameter 1.5 is outside"):
        _werner_block(np.array([0.5, 1.5, 2.0]))
    with pytest.raises(NormalizationError, match=r"^\|k1\|\^2 \+ \|k2\|\^2 = 1.62,"):
        _schmidt_block(np.array([0.6, 0.9]), np.array([0.8, 0.9]))
    with pytest.raises(NotAStateError, match=r"^werner parameter 1.5 is outside"):
        werner_state(1.5)


def test_ensemble_validation_reports_the_first_failed_check():
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="weights must be positive, got -0.5"):
        # term 1 fails both its weight and its norm; the weight is checked first
        ensemble_state([(0.5, v, v), (-0.5, 2.0 * v, v), (1.0, v, 2.0 * v)])
    with pytest.raises(NormalizationError, match="local state has norm 2, expected 1"):
        ensemble_state([(0.5, v, v), (0.5, v, 2.0 * v)])
    with pytest.raises(NormalizationError, match="weights sum to 0.8, expected 1"):
        ensemble_state([(0.4, v, v), (0.4, v, v)])
