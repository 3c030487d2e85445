"""Each check accepts a correct output and rejects a perturbed one.

The correct outputs here are written by hand from the closed forms, in
the shape the CLI prints them; no test in this file calls cycshift.
"""

import json
import math

import numpy as np
import pytest

import checks
import oracles

BELL = oracles.maximally_entangled(2, 2, 2)
BOUND = oracles.SEPARABLE_BOUND


def pairs(m):
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def dmax_text(d, u, method="phase-closed-form", certified=True):
    return json.dumps({"d": d, "method": method, "certified": certified,
                       "unitary": {"matrix": pairs(u)}})


def test_dmax_check():
    ref = checks.StateRef(oracles.schmidt_density(0.6), (2, 2), d_exact=0.96)
    u = np.diag([-1j, 1j])  # phase pi about z
    checks.check_dmax(dmax_text(0.96, u), ref)
    with pytest.raises(checks.CheckError, match="d"):
        checks.check_dmax(dmax_text(0.96 * 1.01, u), ref)
    with pytest.raises(checks.CheckError, match="commute"):
        checks.check_dmax(dmax_text(0.96, np.array([[0, 1], [1, 0]])), ref)
    with pytest.raises(checks.CheckError, match="returned unitary"):
        checks.check_dmax(dmax_text(0.96, np.diag([1.0, 1j])), ref)
    with pytest.raises(checks.CheckError, match="certified"):
        checks.check_dmax(dmax_text(0.96, u, certified=False), ref)


def test_dmax_check_with_bounds():
    ref = checks.StateRef(BELL, (2, 2), d_lower=0.9, d_upper=1.0)
    u = np.diag([1.0, -1.0])
    checks.check_dmax(dmax_text(1.0, u, method="multistart", certified=False), ref)
    low = checks.StateRef(BELL, (2, 2), d_lower=0.9, d_upper=0.95)
    with pytest.raises(checks.CheckError, match="upper bound"):
        checks.check_dmax(dmax_text(1.0, u, method="multistart"), low)


def detect_text(**fields):
    out = {"d_max": 0.5, "bound_violated": False, "ppt_negative": True,
           "min_pt_eigenvalue": -0.125, "gisin_bmax": None, "theorem_class": False,
           "classification": "entangled-certified"}
    out.update(fields)
    return json.dumps(out)


def test_detect_check():
    ref = checks.StateRef(oracles.werner_density(0.5), (2, 2), d_exact=0.5)
    checks.check_detect(detect_text(), ref)
    for perturbed in ({"ppt_negative": False}, {"bound_violated": True},
                      {"d_max": 0.55}, {"min_pt_eigenvalue": -0.12},
                      {"gisin_bmax": 2.5},
                      {"classification": "classically-correlated-compatible"}):
        with pytest.raises(checks.CheckError):
            checks.check_detect(detect_text(**perturbed), ref)


def test_detect_check_on_pure_and_boundary_states():
    ref = checks.StateRef(oracles.schmidt_density(0.6), (2, 2), d_exact=0.96)
    good = dict(d_max=0.96, bound_violated=True, min_pt_eigenvalue=-0.48,
                gisin_bmax=2.0 * math.sqrt(1.0 + 0.96 ** 2))
    checks.check_detect(detect_text(**good), ref)
    with pytest.raises(checks.CheckError, match="gisin"):
        checks.check_detect(detect_text(**{**good, "gisin_bmax": None}), ref)
    cc = checks.StateRef(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2), d_exact=BOUND,
                         flags={"bound_violated": False})
    ok = dict(d_max=BOUND, ppt_negative=False, min_pt_eigenvalue=0.0,
              classification="classically-correlated-compatible")
    checks.check_detect(detect_text(**ok), cc)
    with pytest.raises(checks.CheckError, match="bound_violated"):
        checks.check_detect(detect_text(**{**ok, "bound_violated": True,
                                           "classification": "entangled-certified"}), cc)


def decompose_text(rho, dims, scale=1.0):
    r_a, r_b, beta = oracles.pauli_form(rho)
    beta = beta * scale
    return json.dumps({"dims": list(dims), "r_a": list(r_a), "r_b": list(r_b),
                       "beta": beta.tolist(), "r_a_norm": float(np.linalg.norm(r_a)),
                       "r_b_norm": float(np.linalg.norm(r_b)),
                       "beta_norm": float(np.linalg.norm(beta))})


def test_decompose_check():
    rho = oracles.schmidt_density(0.6)
    ref = checks.StateRef(rho, (2, 2))
    checks.check_decompose(decompose_text(rho, (2, 2)), ref)
    with pytest.raises(checks.CheckError):
        checks.check_decompose(decompose_text(rho, (2, 2), scale=1.001), ref)
    with pytest.raises(checks.CheckError, match="dims"):
        checks.check_decompose(decompose_text(rho, (2, 3)), ref)


def test_decompose_check_uses_purity_identity_beyond_qubits():
    rho = np.eye(6) / 6.0
    out = {"dims": [2, 3], "r_a": [0.0] * 3, "r_b": [0.0] * 8, "beta": [[0.0] * 8] * 3,
           "r_a_norm": 0.0, "r_b_norm": 0.0, "beta_norm": 0.0}
    ref = checks.StateRef(rho, (2, 3))
    checks.check_decompose(json.dumps(out), ref)
    out["beta"] = [[0.01] + [0.0] * 7] + [[0.0] * 8] * 2
    with pytest.raises(checks.CheckError, match="purity"):
        checks.check_decompose(json.dumps(out), ref)


def test_chsh_check():
    ref = checks.ChshRef(**oracles.chsh_schmidt(0.6, 1.2))
    good = {"d_direct": ref.d, "estimated_d": ref.d,
            "stage1": {"f_max": ref.f_max}, "stage2": {"f_value": ref.f_max}}
    checks.check_chsh(json.dumps(good), ref)
    for key in ("d_direct", "estimated_d"):
        with pytest.raises(checks.CheckError, match=key):
            checks.check_chsh(json.dumps({**good, key: ref.d * 1.01}), ref)
    with pytest.raises(checks.CheckError, match="stage1"):
        checks.check_chsh(json.dumps({**good, "stage1": {"f_max": 2.0}}), ref)


def scan_text(family, rows):
    lines = ["# scan-schema=v1", ",".join(checks.SCAN_COLUMNS)]
    for i, (param, d, beta_norm, ppt, bound) in enumerate(rows):
        lines.append(f"{i},{family},{param!r},{d!r},{beta_norm!r},{int(ppt)},{int(bound)}")
    lines.append(f"# max_d_max={max(r[1] for r in rows)!r}")
    return "\n".join(lines) + "\n"


def werner_rows(count):
    rows = []
    for p in np.linspace(0.0, 1.0, count):
        ref = oracles.werner(float(p))
        rows.append([float(p), ref["d_max"], ref["beta_norm"], ref["ppt_entangled"],
                     ref["bound_violated"]])
    return rows


def test_scan_check_on_the_werner_grid():
    rows = werner_rows(7)
    assert checks.check_scan(scan_text("werner-grid", rows), "werner-grid", 7, 0) == 7
    flipped = [list(r) for r in rows]
    flipped[3][3] = not flipped[3][3]
    with pytest.raises(checks.CheckError, match="row 3: ppt_entangled"):
        checks.check_scan(scan_text("werner-grid", flipped), "werner-grid", 7, 0)
    scaled = [list(r) for r in rows]
    scaled[5][1] *= 1.01
    with pytest.raises(checks.CheckError, match="d_max"):
        checks.check_scan(scan_text("werner-grid", scaled), "werner-grid", 7, 0)
    with pytest.raises(checks.CheckError, match="row count"):
        checks.check_scan(scan_text("werner-grid", rows[:6]), "werner-grid", 7, 0)


def test_scan_check_on_schmidt_grid_formulas():
    rows = []
    for k1 in np.linspace(0.0, 1.0, 5):
        ref = oracles.schmidt(float(k1))
        rows.append([float(k1), ref["d_max"], ref["beta_norm"], ref["ppt_entangled"],
                     ref["bound_violated"]])
    checks.check_scan(scan_text("schmidt-grid", rows), "schmidt-grid", 5, 0)
    rows[2][4] = not rows[2][4]
    with pytest.raises(checks.CheckError, match="bound_violated"):
        checks.check_scan(scan_text("schmidt-grid", rows), "schmidt-grid", 5, 0)


def sampled_rows(family, seed, count):
    rows = []
    for i in range(count):
        if family == "random":
            rho = oracles.scan_random_density(seed, i)
            param = float(np.vdot(rho, rho).real)
        else:
            rho, param = oracles.scan_separable_density(seed, i)
        d, _ = oracles.phase_family_dmax(rho)
        _, _, beta = oracles.pauli_form(rho)
        ppt = oracles.ppt_flag(oracles.min_partial_transpose_eig(rho, (2, 2)))
        rows.append([float(param), float(d), float(np.linalg.norm(beta)), ppt,
                     bool(d > BOUND + 1e-9)])
    return rows


@pytest.mark.parametrize("family", ["random", "separable"])
def test_scan_check_on_sampled_families(family):
    rows = sampled_rows(family, 11, 6)
    checks.check_scan(scan_text(family, rows), family, 6, 11)
    with pytest.raises(checks.CheckError):
        checks.check_scan(scan_text(family, rows), family, 6, 12)
    scaled = [list(r) for r in rows]
    scaled[2][1] *= 0.99
    with pytest.raises(checks.CheckError, match="row 2"):
        checks.check_scan(scan_text(family, scaled), family, 6, 11)


def test_scan_check_rejects_an_entangled_flag_on_a_separable_row():
    rows = sampled_rows("separable", 3, 4)
    rows[1][3] = True
    with pytest.raises(checks.CheckError):
        checks.check_scan(scan_text("separable", rows), "separable", 4, 3)


def test_scan_parser_reads_columns_by_name():
    text = ("# scan-schema=v2\nindex,family,param,d_max,beta_norm,ppt_entangled,"
            "bound_violated,method\n0,werner-grid,0.0,0.0,0.0,0,0,rotation-closed-form\n"
            "1,werner-grid,1.0,1.0,1.7320508075688772,1,1,rotation-closed-form\n"
            "# max_d_max=1.0\n")
    assert checks.check_scan(text, "werner-grid", 2, 0) == 2
