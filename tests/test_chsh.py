import math

import numpy as np
import pytest

from cycshift.bloch import BipartiteState, decompose
from cycshift.chsh import (
    MeasurementSettings,
    chsh_expectation,
    chsh_from_bloch,
    correlator,
    measurement_matrix,
    run_protocol,
)
from cycshift.cyclic import (
    apply_cyclic,
    conjugation_matrix,
    phase_cyclic,
    shift_direct,
)
from cycshift.errors import DimensionError, RecoveryError
from cycshift.operators import gell_mann_basis, tensor
from cycshift.states import (
    bell_state,
    ensemble_state,
    haar_unitary,
    maximally_mixed,
    sample_random_state,
    schmidt_state,
    werner_state,
)

PAULI = tuple(gell_mann_basis(2))


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_settings(rng):
    return MeasurementSettings(
        alice_1=random_axis(rng), alice_2=random_axis(rng),
        bob_1=random_axis(rng), bob_2=random_axis(rng),
    )


def aligned_state_under_local_unitary(rng):
    # A Schmidt or Werner state under a random local unitary on A, which
    # rotates beta without breaking the frame identification, and a
    # phase operation about z.
    if rng.uniform() < 0.5:
        k1 = rng.uniform(0.2, 0.95)
        base = schmidt_state(k1, math.sqrt(1.0 - k1 * k1))
    else:
        base = werner_state(rng.uniform(0.2, 1.0))
    u_a = np.kron(haar_unitary(2, rng), np.eye(2))
    state = BipartiteState(u_a @ base.rho @ u_a.conj().T, (2, 2))
    return state, phase_cyclic(state, rng.uniform(0.3, 3.0), axis="z")


def test_settings_require_unit_axes():
    good = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        MeasurementSettings(alice_1=2.0 * good, alice_2=good,
                            bob_1=good, bob_2=good)
    with pytest.raises(DimensionError):
        MeasurementSettings(alice_1=np.ones(2), alice_2=good,
                            bob_1=good, bob_2=good)


def test_measurement_matrix_matches_loop():
    rng = np.random.default_rng(3)
    settings = random_settings(rng)
    t = measurement_matrix(settings)
    plus = settings.alice_1 + settings.alice_2
    minus = settings.alice_1 - settings.alice_2
    for i in range(3):
        for j in range(3):
            want = plus[i] * settings.bob_1[j] + minus[i] * settings.bob_2[j]
            assert abs(t[i, j] - want) < 1e-14


def test_correlator_matches_trace_oracle():
    rng = np.random.default_rng(5)
    state = next(sample_random_state(7, dims=(2, 2), count=1))
    a = random_axis(rng)
    b = random_axis(rng)
    op = tensor(sum(a[i] * PAULI[i] for i in range(3)),
                sum(b[i] * PAULI[i] for i in range(3)))
    want = np.trace(state.rho @ op).real
    assert abs(correlator(state, a, b) - want) < 1e-13


def test_chsh_expectation_equals_bloch_contraction():
    rng = np.random.default_rng(7)
    for state in sample_random_state(11, dims=(2, 2), count=10):
        beta = decompose(state).beta
        for _ in range(5):
            settings = random_settings(rng)
            f_meas = chsh_expectation(state, settings)
            f_bloch = chsh_from_bloch(beta, measurement_matrix(settings))
            assert abs(f_meas - f_bloch) < 1e-12


def test_rotation_from_unitary_ignores_global_phase():
    rng = np.random.default_rng(13)
    u = haar_unitary(2, rng)
    r1 = conjugation_matrix(u, gell_mann_basis(2))
    r2 = conjugation_matrix(np.exp(1j * 0.7) * u, gell_mann_basis(2))
    assert np.max(np.abs(r1 - r2)) < 1e-13


def test_protocol_reaches_tsirelson_on_bell():
    unit = phase_cyclic(bell_state(), 1.0, axis="z")
    transcript = run_protocol(bell_state(), unit, rng=np.random.default_rng(1))
    assert abs(transcript.stage1.f_value - 2.0 * math.sqrt(2.0)) < 1e-9
    assert abs(transcript.stage2.f_value - 2.0 * math.sqrt(2.0)) < 1e-9


@pytest.mark.parametrize("k1,phi", [(0.6, 1.3), (0.3, 2.7), (0.9, 0.4)])
def test_protocol_recovers_schmidt_shift(k1, phi):
    state = schmidt_state(k1, math.sqrt(1.0 - k1 * k1))
    unit = phase_cyclic(state, phi)
    transcript = run_protocol(state, unit, rng=np.random.default_rng(2))
    want = shift_direct(state, unit)
    assert abs(transcript.estimated_d - want) < 1e-9
    assert abs(want - 2.0 * k1 * math.sqrt(1.0 - k1 * k1)
               * abs(math.sin(phi / 2.0))) < 1e-12


def test_protocol_rejects_a_nan_tol_match():
    state = schmidt_state(0.6, 0.8)
    with pytest.raises(RecoveryError):
        run_protocol(state, phase_cyclic(state, 1.2), tol_match=float("nan"))


def test_protocol_recovers_werner_shift():
    rng = np.random.default_rng(3)
    for p in (0.3, 0.8):
        state = werner_state(p)
        axis = random_axis(rng)
        theta = rng.uniform(0.5, 2.5)
        unit = phase_cyclic(state, theta, axis=axis)
        transcript = run_protocol(state, unit, rng=rng)
        assert abs(transcript.estimated_d - shift_direct(state, unit)) < 1e-9


def test_protocol_recovers_haar_rotation_on_bell():
    rng = np.random.default_rng(5)
    state = bell_state()
    unit = haar_unitary(2, rng)
    transcript = run_protocol(state, unit, rng=rng)
    assert abs(transcript.estimated_d - shift_direct(state, unit)) < 1e-9
    # the recovered rotation must match the true conjugation rotation
    true_rot = conjugation_matrix(unit, gell_mann_basis(2)).T
    assert np.max(np.abs(transcript.recovered_rotation - true_rot)) < 1e-9


def test_protocol_transcript_json():
    state = schmidt_state(0.6, 0.8)
    unit = phase_cyclic(state, 1.3)
    data = run_protocol(state, unit, rng=np.random.default_rng(4)).to_json_dict()
    assert set(data) == {
        "stage1", "stage2", "recovered_rotation", "recovered_beta_f",
        "estimated_d",
    }
    assert set(data["stage1"]) == {"alice_axis_1", "alice_axis_2", "f_max"}
    assert set(data["stage2"]) == {"bob_axis_1", "bob_axis_2", "f_value"}


def test_protocol_rejects_flat_landscape():
    state = maximally_mixed((2, 2))
    unit = phase_cyclic(state, 1.0, axis="z")
    with pytest.raises(RecoveryError):
        run_protocol(state, unit, rng=np.random.default_rng(6))


def test_protocol_rejects_product_state():
    # the final-state optimum over one Bob axis goes flat for rank-one
    # correlation matrices
    vec_b = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    state, _ = ensemble_state([(1.0, np.array([1.0, 0.0], dtype=complex), vec_b)])
    unit = phase_cyclic(state, 1.2)
    with pytest.raises(RecoveryError):
        run_protocol(state, unit, rng=np.random.default_rng(7))


def test_protocol_rejects_unaligned_correlation_matrix():
    # beta with eigenvectors of beta^T beta away from the x and y axes
    # breaks the frame identification, and the run must say so
    beta = 0.5 * np.array([
        [1.0, 0.5, 0.0],
        [0.0, 0.3, 0.0],
        [0.0, 0.0, 0.1],
    ])
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        for j in range(3):
            rho += beta[i, j] * tensor(PAULI[i], PAULI[j])
    state = BipartiteState(rho / 4.0, (2, 2))
    unit = haar_unitary(2, np.random.default_rng(8))
    with pytest.raises(RecoveryError) as err:
        run_protocol(state, unit, rng=np.random.default_rng(9))
    assert "principal directions" in str(err.value)


def test_protocol_rejects_wrong_dimensions():
    state = maximally_mixed((2, 3))
    with pytest.raises(DimensionError):
        run_protocol(state, np.eye(3, dtype=complex))


def test_stage1_axes_match_closed_form_oracle():
    # With Bob at x and y, F = a1 . beta(x + y) + a2 . beta(x - y), so the
    # optimal Alice axes are those two vectors normalized and the maximum
    # is the sum of their norms.
    rng = np.random.default_rng(21)
    x_hat = np.array([1.0, 0.0, 0.0])
    y_hat = np.array([0.0, 1.0, 0.0])
    for _ in range(6):
        state, unit = aligned_state_under_local_unitary(rng)
        transcript = run_protocol(state, unit)
        beta = decompose(state).beta
        plus = beta @ (x_hat + y_hat)
        minus = beta @ (x_hat - y_hat)
        assert np.max(np.abs(transcript.stage1.axis_1 - plus / np.linalg.norm(plus))) < 1e-12
        assert np.max(np.abs(transcript.stage1.axis_2 - minus / np.linalg.norm(minus))) < 1e-12
        f_max = np.linalg.norm(plus) + np.linalg.norm(minus)
        assert abs(transcript.stage1.f_value - f_max) < 1e-12


def test_stage2_axes_match_closed_form_oracle():
    # With Alice at a1 and a2, F = b1 . beta_f^T (a1 + a2) + b2 . beta_f^T (a1 - a2)
    # on the final state, so the optimal Bob axes are those two vectors
    # normalized and the maximum is the sum of their norms.
    rng = np.random.default_rng(23)
    for _ in range(6):
        state, unit = aligned_state_under_local_unitary(rng)
        transcript = run_protocol(state, unit)
        beta_f = decompose(apply_cyclic(state, unit)).beta
        a1, a2 = transcript.stage1.axis_1, transcript.stage1.axis_2
        plus = beta_f.T @ (a1 + a2)
        minus = beta_f.T @ (a1 - a2)
        assert np.max(np.abs(transcript.stage2.axis_1 - plus / np.linalg.norm(plus))) < 1e-12
        assert np.max(np.abs(transcript.stage2.axis_2 - minus / np.linalg.norm(minus))) < 1e-12
        f_max = np.linalg.norm(plus) + np.linalg.norm(minus)
        assert abs(transcript.stage2.f_value - f_max) < 1e-12


def test_protocol_builds_no_kronecker_product(monkeypatch):
    state = schmidt_state(0.6, 0.8)
    unit = phase_cyclic(state, 1.2)

    def kron(*args, **kwargs):
        raise AssertionError("run_protocol called np.kron")

    monkeypatch.setattr(np, "kron", kron)
    transcript = run_protocol(state, unit)
    assert abs(transcript.estimated_d - 2.0 * 0.48 * math.sin(0.6)) < 1e-12


def test_protocol_ignores_restarts_and_rng():
    state = schmidt_state(0.6, 0.8)
    unit = phase_cyclic(state, 1.2)
    plain = run_protocol(state, unit).to_json_dict()
    tuned = run_protocol(state, unit, restarts=1, rng=np.random.default_rng(99))
    assert tuned.to_json_dict() == plain
