"""Checks of cycshift outputs against the independent references in ``oracles``.

Each ``check_*`` function takes the text one CLI call printed and the
reference for its input, and raises CheckError on the first mismatch.
Outputs are read by key or column name, so fields added later do not
break a check.  A boolean flag is not compared when the reference value
lies within ``AMBIGUOUS`` of the flag's threshold, where rounding may
decide it either way.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

AMBIGUOUS = 1e-8
TOL = 1e-9           # closed forms and definitions
TOL_OPT = 1e-6       # optimizer and measurement-protocol results
TOL_BOUND = 1e-9     # margin the CLI adds to the separable bound
SCAN_COLUMNS = ("index", "family", "param", "d_max", "beta_norm",
                "ppt_entangled", "bound_violated")


class CheckError(Exception):
    """An output disagrees with its reference."""


def _close(name, got, want, tol):
    if got is None or not abs(float(got) - float(want)) <= tol:
        raise CheckError(f"{name}: got {got!r}, expected {want!r} (tol {tol:g})")


def _equal(name, got, want):
    if got != want:
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


def _flag(name, got, want, distance):
    """Compare a boolean flag unless the reference sits on its threshold."""
    if abs(distance) > AMBIGUOUS and bool(got) != bool(want):
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


@dataclass
class StateRef:
    """Everything the checks need to know about one input state.

    ``d_exact`` is the reference d_max when one is known (closed form or
    brute force); otherwise ``d_lower``/``d_upper`` bracket it.  ``flags``
    holds detect flags the paper fixes exactly (a separable state never
    violates the bound, even when it sits on it).
    """

    rho: np.ndarray
    dims: tuple
    d_exact: float | None = None
    d_tol: float = TOL
    d_lower: float | None = None
    d_upper: float | None = None
    flags: dict = field(default_factory=dict)
    min_pt: float = field(init=False)
    purity: float = field(init=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        self.dims = tuple(self.dims)
        self.min_pt = float(oracles.min_partial_transpose_eig(self.rho, self.dims))
        self.purity = float(np.vdot(self.rho, self.rho).real)

    @property
    def d_ref(self):
        """Best single reference value of d_max, for threshold flags."""
        if self.d_exact is not None:
            return self.d_exact
        return self.d_lower


def _check_d(name, d, ref):
    if ref.d_exact is not None:
        _close(name, d, ref.d_exact, ref.d_tol)
    if ref.d_lower is not None and d < ref.d_lower - TOL_OPT:
        raise CheckError(f"{name}: {d!r} is below the sampled shift {ref.d_lower!r}")
    if ref.d_upper is not None and d > ref.d_upper + TOL:
        raise CheckError(f"{name}: {d!r} is above the upper bound {ref.d_upper!r}")
    if not 0.0 <= d <= 1.0 + TOL:
        raise CheckError(f"{name}: {d!r} is outside [0, 1]")


def _pairs_to_matrix(pairs, n):
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != n * n:
        raise CheckError(f"unitary has {flat.size} entries, expected {n * n}")
    return flat.reshape(n, n)


def check_dmax(text, ref):
    out = json.loads(text)
    d = out["d"]
    _check_d("d", d, ref)
    if out["method"] != "multistart":
        _equal("certified", out["certified"], True)
    unit = out["unitary"]
    u = _pairs_to_matrix(unit["matrix"], ref.dims[1])
    if not np.allclose(u @ u.conj().T, np.eye(ref.dims[1]), atol=1e-9):
        raise CheckError("returned matrix is not unitary")
    if not oracles.commutes_with_rho_b(ref.rho, ref.dims, u):
        raise CheckError("returned unitary does not commute with rho_B")
    _close("shift of the returned unitary", oracles.shift_of(ref.rho, ref.dims, u), d, 1e-8)


def check_detect(text, ref):
    out = json.loads(text)
    d = out["d_max"]
    _check_d("d_max", d, ref)
    two_qubit = ref.dims == (2, 2)
    if two_qubit:
        _flag("bound_violated", out["bound_violated"],
              ref.d_ref > oracles.SEPARABLE_BOUND + TOL_BOUND,
              ref.d_ref - oracles.SEPARABLE_BOUND)
    else:
        _equal("bound_violated", out["bound_violated"], False)
    _flag("ppt_negative", out["ppt_negative"], oracles.ppt_flag(ref.min_pt),
          ref.min_pt - oracles.PPT_FLOOR)
    _close("min_pt_eigenvalue", out["min_pt_eigenvalue"], ref.min_pt, TOL)
    if two_qubit and abs(ref.purity - 1.0) <= 1e-9:
        _, _, beta = oracles.pauli_form(ref.rho)
        _close("gisin_bmax", out["gisin_bmax"], oracles.horodecki_bmax(beta), TOL)
    else:
        _equal("gisin_bmax", out["gisin_bmax"], None)
    for name, want in ref.flags.items():
        _equal(name, out[name], want)
    certified = out["bound_violated"] or out["ppt_negative"]
    if certified != (out["classification"] == "entangled-certified"):
        raise CheckError(f"classification {out['classification']!r} does not follow "
                         "from bound_violated and ppt_negative")


def check_decompose(text, ref):
    out = json.loads(text)
    na, nb = ref.dims
    _equal("dims", out["dims"], [na, nb])
    r_a = np.array(out["r_a"])
    r_b = np.array(out["r_b"])
    beta = np.array(out["beta"])
    if r_a.shape != (na * na - 1,) or r_b.shape != (nb * nb - 1,) \
            or beta.shape != (na * na - 1, nb * nb - 1):
        raise CheckError(f"Bloch form shapes {r_a.shape}, {r_b.shape}, {beta.shape} "
                         f"do not fit dims {ref.dims}")
    if ref.dims == (2, 2):
        want_a, want_b, want_beta = oracles.pauli_form(ref.rho)
        for name, got, want in (("r_a", r_a, want_a), ("r_b", r_b, want_b),
                                ("beta", beta, want_beta)):
            err = float(np.abs(got - want).max())
            if err > TOL:
                raise CheckError(f"{name} differs from the Pauli expectation values by {err:.3e}")
    ra2, rb2, beta2 = oracles.bloch_norms(ref.rho, ref.dims)
    for name, vec, want in (("r_a", r_a, ra2), ("r_b", r_b, rb2), ("beta", beta, beta2)):
        _close(f"|{name}|^2 against the purity identity", float(np.sum(vec * vec)), want, TOL)
        _close(f"{name}_norm^2 against the purity identity", out[f"{name}_norm"] ** 2, want, TOL)


@dataclass
class ChshRef:
    d: float
    f_max: float


def check_chsh(text, ref):
    out = json.loads(text)
    _close("d_direct", out["d_direct"], ref.d, TOL)
    _close("estimated_d", out["estimated_d"], ref.d, TOL_OPT)
    _close("stage1.f_max", out["stage1"]["f_max"], ref.f_max, TOL_OPT)
    _close("stage2.f_value", out["stage2"]["f_value"], ref.f_max, TOL_OPT)


# --- scan -----------------------------------------------------------------

def parse_scan_csv(text):
    """(columns dict of lists, footer dict) of a scan CSV, read by column name."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# scan-schema="):
        raise CheckError("scan output does not start with a schema line")
    header = lines[1].split(",")
    missing = [c for c in SCAN_COLUMNS if c not in header]
    if missing:
        raise CheckError(f"scan header lacks columns {missing}")
    pos = {name: header.index(name) for name in SCAN_COLUMNS}
    cols = {name: [] for name in SCAN_COLUMNS}
    footer = {}
    for line in lines[2:]:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            footer[key] = value
            continue
        cells = line.split(",")
        for name, i in pos.items():
            cols[name].append(cells[i])
    return cols, footer


def check_scan(text, family, count, seed):
    cols, footer = parse_scan_csv(text)
    n = len(cols["index"])
    _equal("row count", n, count)
    if [int(x) for x in cols["index"]] != list(range(count)):
        raise CheckError("scan rows are not indexed 0..count-1 in order")
    if set(cols["family"]) != {family}:
        raise CheckError(f"scan family column is {sorted(set(cols['family']))}")
    param = np.array([float(x) for x in cols["param"]])
    d = np.array([float(x) for x in cols["d_max"]])
    beta_norm = np.array([float(x) for x in cols["beta_norm"]])
    ppt = np.array([int(x) for x in cols["ppt_entangled"]], dtype=bool)
    bound = np.array([int(x) for x in cols["bound_violated"]], dtype=bool)
    _equal("max_d_max footer", float(footer.get("max_d_max", "nan")), float(d.max()))

    grid = np.linspace(0.0, 1.0, count)
    if family == "werner-grid":
        want_param = grid
        want_d = np.abs(grid)
        want_beta = math.sqrt(3.0) * np.abs(grid)
        min_pt = (1.0 - 3.0 * grid) / 4.0
    elif family == "schmidt-grid":
        want_param = grid
        k2 = np.sqrt(np.maximum(0.0, 1.0 - grid * grid))
        want_d = 2.0 * grid * k2
        want_beta = np.sqrt(1.0 + 8.0 * (grid * k2) ** 2)
        min_pt = -grid * k2
    else:
        want_param = np.empty(count)
        states = np.empty((count, 4, 4), dtype=complex)
        for i in range(count):
            if family == "random":
                states[i] = oracles.scan_random_density(seed, i)
                want_param[i] = float(np.vdot(states[i], states[i]).real)
            else:
                states[i], want_param[i] = oracles.scan_separable_density(seed, i)
        want_d, gap = oracles.phase_family_dmax(states)
        _, _, beta = oracles.pauli_form(states)
        want_beta = np.linalg.norm(beta, axis=(1, 2))
        min_pt = oracles.min_partial_transpose_eig(states, (2, 2))
        # On a (near) degenerate rho_B the commutant is larger than the
        # phase family, so there the brute force is only a lower bound.
        below = d < want_d - TOL
        if np.any(below):
            i = int(np.argmax(below))
            raise CheckError(f"row {i}: d_max {d[i]!r} is below the phase-family "
                             f"maximum {want_d[i]!r}")
        want_d = np.where(gap < 1e-6, d, want_d)
    _compare_rows("param", param, want_param, 1e-12)
    _compare_rows("d_max", d, want_d, TOL)
    _compare_rows("beta_norm", beta_norm, want_beta, TOL)
    if family == "separable" and np.any(d > oracles.SEPARABLE_BOUND + TOL):
        raise CheckError("a separable row exceeds d_max = 1/sqrt(2)")
    ppt_distance = min_pt - oracles.PPT_FLOOR
    _compare_flags("ppt_entangled", ppt, ppt_distance < 0, ppt_distance)
    bound_distance = want_d - (oracles.SEPARABLE_BOUND + TOL_BOUND)
    _compare_flags("bound_violated", bound, bound_distance > 0, bound_distance)
    if family == "separable" and (ppt.any() or bound.any()):
        raise CheckError("a separable row is flagged as entangled")
    return count


def _compare_rows(name, got, want, tol):
    err = np.abs(got - want)
    if np.any(~(err <= tol)):
        i = int(np.argmax(~(err <= tol)))
        raise CheckError(f"row {i}: {name} is {got[i]!r}, expected {want[i]!r}")


def _compare_flags(name, got, want, distance):
    wrong = (got != want) & (np.abs(distance) > AMBIGUOUS)
    if np.any(wrong):
        i = int(np.argmax(wrong))
        raise CheckError(f"row {i}: {name} is {bool(got[i])}, expected {bool(want[i])}")
