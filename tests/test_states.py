import math

import numpy as np
import pytest

from cycshift.errors import (
    DimensionError,
    NormalizationError,
    NotAStateError,
)
from cycshift.operators import partial_trace
from cycshift.states import (
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
