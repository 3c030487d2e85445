import math

import numpy as np
import pytest

from cycshift.analysis import (
    SEPARABLE_BOUND,
    detect,
    gisin_bmax,
    partial_transpose,
    ppt_test,
)
from cycshift.bloch import BipartiteState, decompose
from cycshift.cyclic import d_max
from cycshift.errors import DimensionError, NotAStateError
from cycshift.operators import tensor
from cycshift.states import (
    bell_state,
    cc5050,
    sample_random_state,
    sample_separable,
    schmidt_state,
    werner_state,
)


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def transpose_b_loop(rho, da, db):
    out = np.zeros_like(rho)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = rho[i * db + l, j * db + k]
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_partial_transpose_matches_loop(dims):
    rng = np.random.default_rng(3)
    da, db = dims
    rho = random_density(da * db, rng)
    got = partial_transpose(rho, dims)
    assert np.max(np.abs(got - transpose_b_loop(rho, da, db))) < 1e-14
    # involution, trace and hermiticity are preserved
    assert np.max(np.abs(partial_transpose(got, dims) - rho)) < 1e-14
    assert abs(np.trace(got) - 1.0) < 1e-13
    assert np.max(np.abs(got - got.conj().T)) < 1e-13


def test_werner_partial_transpose_eigenvalue_law():
    for p in np.linspace(0.0, 1.0, 11):
        state = werner_state(float(p))
        min_eig, entangled = ppt_test(state)
        assert abs(min_eig - (1.0 - 3.0 * p) / 4.0) < 1e-12
        assert entangled == (p > 1.0 / 3.0 + 1e-10)


def test_bell_partial_transpose_eigenvalue():
    min_eig, entangled = ppt_test(bell_state())
    assert abs(min_eig + 0.5) < 1e-12
    assert entangled


def test_separable_states_pass_ppt():
    for state, _ in sample_separable(5, count=30):
        min_eig, entangled = ppt_test(state)
        assert min_eig > -1e-10
        assert not entangled


def test_detect_bell():
    report = detect(bell_state())
    assert report.classification == "entangled-certified"
    assert report.bound_violated
    assert report.ppt_negative
    assert abs(report.gisin_bmax - 2.0 * math.sqrt(2.0)) < 1e-9
    assert abs(report.d_max - 1.0) < 1e-10


def test_detect_werner_half():
    # PPT flags it while the shift stays under the separable bound
    report = detect(werner_state(0.5))
    assert report.classification == "entangled-certified"
    assert report.ppt_negative
    assert not report.bound_violated
    assert report.gisin_bmax is None
    assert abs(report.min_pt_eigenvalue + 0.125) < 1e-12


def test_detect_werner_separable_region():
    report = detect(werner_state(0.2))
    assert report.classification == "classically-correlated-compatible"
    assert not report.ppt_negative
    assert not report.bound_violated
    assert not report.theorem_class


def test_detect_cc5050():
    report = detect(cc5050())
    assert report.classification == "classically-correlated-compatible"
    assert abs(report.d_max - SEPARABLE_BOUND) < 1e-10
    assert not report.bound_violated
    assert not report.theorem_class


@pytest.mark.parametrize("tol_bound", [float("nan"), math.inf, 0.0, -1e-9])
def test_detect_rejects_a_tol_bound_that_is_not_positive_and_finite(tol_bound):
    # werner(0.9) has d_max 0.9, above the separable bound
    with pytest.raises(ValueError, match="tol_bound must be positive and finite"):
        detect(werner_state(0.9), tol_bound=tol_bound)


def test_detect_product_state():
    rng = np.random.default_rng(9)
    state = BipartiteState(
        tensor(random_density(2, rng), random_density(2, rng)), (2, 2)
    )
    report = detect(state)
    assert report.classification == "product-like"
    assert report.theorem_class
    assert report.d_max < 1e-10


def test_detect_on_qutrit_side():
    state = next(sample_random_state(7, dims=(2, 3), count=1))
    report = detect(state, restarts=6, rng=np.random.default_rng(2))
    assert report.gisin_bmax is None
    assert report.classification in (
        "entangled-certified",
        "classically-correlated-compatible",
    )


def test_detect_report_json_keys():
    data = detect(werner_state(0.5)).to_json_dict()
    assert set(data) == {
        "d_max", "bound_violated", "ppt_negative", "min_pt_eigenvalue",
        "gisin_bmax", "theorem_class", "classification",
    }


def test_gisin_two_forms_agree():
    # independent reference: 2 sqrt(m1 + m2) from the top two
    # eigenvalues of beta^T beta, maximized over all settings
    rng = np.random.default_rng(13)
    for _ in range(30):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        state = BipartiteState(np.outer(vec, vec.conj()), (2, 2))
        form = decompose(state)
        evals = np.linalg.eigvalsh(form.beta.T @ form.beta)
        want = 2.0 * math.sqrt(evals[1] + evals[2])
        assert abs(gisin_bmax(state) - want) < 1e-9


def test_gisin_bell_value():
    assert abs(gisin_bmax(bell_state()) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_gisin_schmidt_value():
    k1, k2 = 0.6, 0.8
    want = 2.0 * math.sqrt(1.0 + (2.0 * k1 * k2) ** 2)
    assert abs(gisin_bmax(schmidt_state(k1, k2)) - want) < 1e-12


def test_gisin_rejects_mixed_and_wrong_dims():
    with pytest.raises(NotAStateError):
        gisin_bmax(werner_state(0.5))
    vec = np.zeros(6, dtype=complex)
    vec[0] = 1.0
    pure_23 = BipartiteState(np.outer(vec, vec.conj()), (2, 3))
    with pytest.raises(DimensionError):
        gisin_bmax(pure_23)


def test_bound_violators_are_ppt_negative():
    # the shift bound can only be beaten by entangled states, and the
    # PPT test is exact in two-qubit dimensions
    for state in sample_random_state(17, dims=(2, 2), count=100):
        report = detect(state)
        if report.bound_violated:
            assert report.ppt_negative


@pytest.mark.parametrize("state", [schmidt_state(0.6, 0.8), bell_state(),
                                   next(sample_random_state(83, dims=(2, 3), count=1))])
def test_detect_decomposes_once(monkeypatch, state):
    import cycshift.analysis

    calls = []

    def counting(st, *args, **kwargs):
        calls.append(st)
        return decompose(st, *args, **kwargs)

    monkeypatch.setattr(cycshift.analysis, "decompose", counting)
    report = detect(state, restarts=2, rng=np.random.default_rng(3))
    assert len(calls) == 1
    assert report.d_max == d_max(state, restarts=2, rng=np.random.default_rng(3)).d
