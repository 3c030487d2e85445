"""The reference values against hand-worked cases."""

import math

import numpy as np
import pytest

import oracles

BELL = oracles.maximally_entangled(2, 2, 2)
PRODUCT_00 = oracles.pure_density([1.0, 0.0, 0.0, 0.0])


def test_werner_closed_form():
    ref = oracles.werner(0.5)
    assert ref["d_max"] == 0.5
    assert ref["beta_norm"] == pytest.approx(math.sqrt(3.0) / 2.0)
    assert ref["ppt_entangled"] and not ref["bound_violated"]
    assert oracles.werner(0.8)["bound_violated"]
    assert not oracles.werner(0.3)["ppt_entangled"]


def test_schmidt_closed_form():
    ref = oracles.schmidt(0.6)
    assert ref["d_max"] == pytest.approx(0.96)
    assert ref["beta_norm"] == pytest.approx(math.sqrt(1.0 + 8.0 * 0.48 ** 2))
    assert ref["bound_violated"] and ref["ppt_entangled"]
    assert not oracles.schmidt(1.0)["ppt_entangled"]


def test_chsh_closed_forms():
    s = oracles.chsh_schmidt(0.6, math.pi)
    assert s["d"] == pytest.approx(0.96)
    assert s["f_max"] == pytest.approx(4.0 * math.sqrt(2.0) * 0.48)
    w = oracles.chsh_werner(-0.5, math.pi / 3.0)
    assert w["d"] == pytest.approx(0.25)
    assert w["f_max"] == pytest.approx(math.sqrt(2.0))


def test_pauli_form_of_named_states():
    r_a, r_b, beta = oracles.pauli_form(oracles.werner_density(0.4))
    np.testing.assert_allclose(beta, -0.4 * np.eye(3), atol=1e-15)
    np.testing.assert_allclose(r_a, 0.0, atol=1e-15)
    r_a, r_b, beta = oracles.pauli_form(oracles.schmidt_density(0.6))
    np.testing.assert_allclose(beta, np.diag([0.96, -0.96, 1.0]), atol=1e-15)
    np.testing.assert_allclose(r_a, [0.0, 0.0, -0.28], atol=1e-15)
    np.testing.assert_allclose(r_b, [0.0, 0.0, -0.28], atol=1e-15)
    stack = np.array([BELL, PRODUCT_00])
    _, _, betas = oracles.pauli_form(stack)
    np.testing.assert_allclose(betas[1], np.diag([0.0, 0.0, 1.0]), atol=1e-15)


def test_partial_transpose_minimum():
    assert oracles.min_partial_transpose_eig(oracles.werner_density(0.6), (2, 2)) \
        == pytest.approx((1.0 - 1.8) / 4.0)
    assert oracles.min_partial_transpose_eig(oracles.schmidt_density(0.6), (2, 2)) \
        == pytest.approx(-0.48)
    assert oracles.min_partial_transpose_eig(PRODUCT_00, (2, 2)) == pytest.approx(0.0)
    assert oracles.ppt_flag(-1e-3) and not oracles.ppt_flag(-1e-12)


def test_phase_family_maximum():
    d, gap = oracles.phase_family_dmax(oracles.schmidt_density(0.6))
    assert d == pytest.approx(0.96)
    assert gap == pytest.approx(0.64 - 0.36)
    d, _ = oracles.phase_family_dmax(np.array([oracles.schmidt_density(0.8), PRODUCT_00]))
    np.testing.assert_allclose(d, [0.96, 0.0], atol=1e-12)


def test_horodecki_value():
    _, _, beta = oracles.pauli_form(BELL)
    assert oracles.horodecki_bmax(beta) == pytest.approx(2.0 * math.sqrt(2.0))
    _, _, beta = oracles.pauli_form(oracles.schmidt_density(0.6))
    assert oracles.horodecki_bmax(beta) == pytest.approx(2.0 * math.sqrt(1.0 + 0.96 ** 2))


def test_shift_of_explicit_unitaries():
    sigma_z = np.diag([1.0, -1.0])
    assert oracles.shift_of(BELL, (2, 2), sigma_z) == pytest.approx(1.0)
    assert oracles.shift_of(BELL, (2, 2), np.eye(2)) == 0.0
    assert oracles.commutes_with_rho_b(oracles.schmidt_density(0.6), (2, 2), sigma_z)
    assert not oracles.commutes_with_rho_b(oracles.schmidt_density(0.6), (2, 2),
                                           np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_nondegenerate_bounds_on_a_schmidt_qutrit_state():
    c = np.sqrt([0.5, 0.3, 0.2])
    vec = np.zeros(9)
    vec[[0, 4, 8]] = c
    rho = oracles.pure_density(vec)
    lower, upper, gap = oracles.nondegenerate_dmax_bounds(rho, (3, 3), np.random.default_rng(0))
    # W_jk = c_j^2 c_k^2, so the upper bound is sqrt(4 sum_{j<k} c_j^2 c_k^2).
    assert upper == pytest.approx(math.sqrt(4.0 * (0.15 + 0.10 + 0.06)))
    assert 0.0 < lower <= upper
    assert gap == pytest.approx(0.1)


def test_bloch_norms_from_purity():
    assert oracles.bloch_norms(BELL, (2, 2)) == pytest.approx((0.0, 0.0, 3.0))
    assert oracles.bloch_norms(PRODUCT_00, (2, 2)) == pytest.approx((1.0, 1.0, 1.0))
    assert oracles.bloch_norms(np.eye(6) / 6.0, (2, 3)) == pytest.approx((0.0, 0.0, 0.0))
    ra2, rb2, beta2 = oracles.bloch_norms(oracles.maximally_entangled(3, 3, 3), (3, 3))
    assert (ra2, rb2) == pytest.approx((0.0, 0.0), abs=1e-15)
    # Tr rho^2 = 1 = (1 + 4 |beta|^2) / 9
    assert beta2 == pytest.approx(2.0)


def test_sampler_replicas_are_states_and_repeat():
    rho = oracles.scan_random_density(7, 3)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    np.testing.assert_array_equal(rho, oracles.scan_random_density(7, 3))
    rho, m = oracles.scan_separable_density(7, 3)
    assert 2 <= m <= 8
    assert oracles.min_partial_transpose_eig(rho, (2, 2)) > -1e-12
