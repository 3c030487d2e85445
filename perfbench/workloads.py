"""The four workloads: the CLI calls of one round and the reference for each.

A round is a fixed list of operations.  Every round draws fresh inputs
from ``(seed, workload, round index)``, so the same seed gives the same
inputs, and a longer run sees more distinct states without changing
the mix of operations.  Inputs reach the program only as builtin state
names, JSON state files written here, and ``--seed`` for ``scan``.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import oracles

# Round index of the untimed warm-up round, which fills the per-dimension
# caches; it uses smaller inputs or fewer restarts where that is cheaper.
WARMUP_ROUND = 2**31

# Rows per scan call.  Thousands of rows put the batch path, not start-up
# or argument parsing, in charge of the time of one call.
SCAN_COUNT = 1000
SCAN_FAMILIES = ("random", "separable", "werner-grid", "schmidt-grid")
# chsh and the 3x3 maximally entangled d_max run with fewer restarts than
# the CLI default (16), so that one run holds enough calls for a steady
# median; see README.md.
CHSH_RESTARTS = 4
ME33_RESTARTS = 2


@dataclass
class Op:
    """One cycshift CLI call, the work units it counts for, and its check."""

    argv: list
    units: int
    check: Callable[[str], None]


def state_json(rho, dims):
    """A state in the JSON form the CLI reads: dims and row-major [re, im] pairs."""
    flat = np.asarray(rho, dtype=complex).reshape(-1)
    return {"dims": list(dims), "matrix": [[float(z.real), float(z.imag)] for z in flat]}


def write_state(path, rho, dims):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_json(rho, dims), fh)


def _rho_b_gap(rho, dims):
    _, rho_b = oracles.reduced(rho, dims)
    return float(np.diff(np.linalg.eigvalsh(rho_b)).min())


def _nondegenerate(dims, draw):
    """Draw until rho_B is clearly nondegenerate (almost always the first draw)."""
    while True:
        rho = draw()
        if _rho_b_gap(rho, dims) > 1e-3:
            return rho


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._tag = sum(self.name.encode())  # differs between the four workloads

    def rng(self, r):
        return np.random.default_rng([self.seed, self._tag, r])

    def path(self, r, i):
        return os.path.join(self.workdir, f"r{r}-{i}.json")

    def ops(self, r):
        """Operations of round ``r``; input files are written here."""
        raise NotImplementedError

    def cold_state(self):
        """(rho, dims) at the workload's largest dimensions, for the cold decompose."""
        return oracles.random_density(4, self.rng(WARMUP_ROUND + 1)), (2, 2)


def _state_ops(argv_state, ref, commands=("dmax", "detect", "decompose"), extra=()):
    table = {"dmax": checks.check_dmax, "detect": checks.check_detect,
             "decompose": checks.check_decompose}
    return [Op([cmd, "--state", argv_state, *extra], 1,
               lambda text, f=table[cmd]: f(text, ref)) for cmd in commands]


class QubitScan(Workload):
    """scan over the four 2x2 families; one operation is one row."""

    name = "qubit-scan"

    def ops(self, r):
        count = 8 if r == WARMUP_ROUND else SCAN_COUNT
        scan_seed = int(self.rng(r).integers(0, 2**31 - 1))
        return [
            Op(["scan", "--family", family, "--count", str(count), "--seed", str(scan_seed),
                "--workers", "1", "--format", "csv"], count,
               lambda text, f=family: checks.check_scan(text, f, count, scan_seed))
            for family in SCAN_FAMILIES
        ]


class QubitOneshot(Workload):
    """dmax, detect and decompose on single 2x2 states; one operation is one call."""

    name = "qubit-oneshot"

    def ops(self, r):
        rng = self.rng(r)
        entries = [
            ("bell", checks.StateRef(oracles.maximally_entangled(2, 2, 2), (2, 2), d_exact=1.0)),
            ("cc5050", checks.StateRef(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2),
                                       d_exact=oracles.SEPARABLE_BOUND,
                                       flags={"bound_violated": False})),
        ]
        for _ in range(2):
            k1 = float(rng.uniform(0.2, 0.95))
            entries.append((f"schmidt:{k1!r}", checks.StateRef(
                oracles.schmidt_density(k1), (2, 2), d_exact=oracles.schmidt(k1)["d_max"])))
        for _ in range(2):
            p = float(rng.uniform(0.05, 0.95))
            entries.append((f"werner:{p!r}", checks.StateRef(
                oracles.werner_density(p), (2, 2), d_exact=oracles.werner(p)["d_max"])))
        files = [
            _nondegenerate((2, 2), lambda: oracles.random_density(4, rng)),
            _nondegenerate((2, 2), lambda: oracles.random_density(4, rng)),
            _nondegenerate((2, 2), lambda: oracles.pure_density(
                rng.standard_normal(4) + 1j * rng.standard_normal(4))),
        ]
        for i, rho in enumerate(files):
            d, _ = oracles.phase_family_dmax(rho)
            path = self.path(r, i)
            write_state(path, rho, (2, 2))
            entries.append((path, checks.StateRef(rho, (2, 2), d_exact=float(d))))
        rho = _nondegenerate((2, 2), lambda: _separable_mixture(rng, 3))
        d, _ = oracles.phase_family_dmax(rho)
        path = self.path(r, len(files))
        write_state(path, rho, (2, 2))
        entries.append((path, checks.StateRef(
            rho, (2, 2), d_exact=float(d),
            flags={"bound_violated": False, "ppt_negative": False})))
        return [op for name, ref in entries for op in _state_ops(name, ref)]


def _separable_mixture(rng, m):
    weights = rng.dirichlet(np.ones(m))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho += w * oracles.pure_density(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return (rho + rho.conj().T) / 2.0


class QuditDmax(Workload):
    """Generic d_max on a B side larger than a qubit, and decompose up to 8x8."""

    name = "qudit-dmax"
    # (command, dims) of the nondegenerate inputs of one round.
    NONDEGENERATE = (("dmax", (2, 3)), ("dmax", (2, 3)), ("dmax", (2, 3)),
                     ("detect", (2, 3)), ("detect", (2, 3)),
                     ("dmax", (3, 3)), ("dmax", (3, 3)), ("dmax", (3, 3)),
                     ("detect", (3, 3)))

    def ops(self, r):
        rng = self.rng(r)
        warm = r == WARMUP_ROUND
        ops = []
        for i, (cmd, dims) in enumerate(self.NONDEGENERATE):
            if warm and i % 3:
                continue
            n = dims[0] * dims[1]
            rho = _nondegenerate(dims, lambda: oracles.random_density(n, rng))
            lower, upper, _ = oracles.nondegenerate_dmax_bounds(rho, dims, rng)
            path = self.path(r, i)
            write_state(path, rho, dims)
            ref = checks.StateRef(rho, dims, d_lower=lower, d_upper=upper)
            extra = ("--restarts", "1") if warm else ()
            ops += _state_ops(path, ref, (cmd,), extra)
        # Degenerate rho_B: a maximally entangled pair inside 2x3 under a
        # random local unitary (blocks of size 1 and 2), and the canonical
        # maximally entangled 3x3 state (one block of size 3).
        u = np.kron(oracles.haar_unitary(2, rng), oracles.haar_unitary(3, rng))
        rho = u @ oracles.maximally_entangled(2, 3, 2) @ u.conj().T
        rho = (rho + rho.conj().T) / 2.0
        path = self.path(r, "me23")
        write_state(path, rho, (2, 3))
        ref = checks.StateRef(rho, (2, 3), d_exact=1.0, d_tol=checks.TOL_OPT)
        ops += _state_ops(path, ref, ("dmax",), ("--restarts", "1") if warm else ())
        if not warm:
            rho = oracles.maximally_entangled(3, 3, 3)
            path = self.path(r, "me33")
            write_state(path, rho, (3, 3))
            ref = checks.StateRef(rho, (3, 3), d_exact=1.0, d_tol=checks.TOL_OPT)
            ops += _state_ops(path, ref, ("dmax",), ("--restarts", str(ME33_RESTARTS)))
        for dims in ((6, 6), (8, 8)):
            rho = oracles.random_density(dims[0] * dims[1], rng)
            path = self.path(r, f"{dims[0]}x{dims[1]}")
            write_state(path, rho, dims)
            ops += _state_ops(path, checks.StateRef(rho, dims), ("decompose",))
        return ops

    def cold_state(self):
        return oracles.random_density(64, self.rng(WARMUP_ROUND + 1)), (8, 8)


class ChshProtocol(Workload):
    """chsh on Schmidt and Werner states at random angles; one operation is one call."""

    name = "chsh-protocol"

    def ops(self, r):
        rng = self.rng(r)
        restarts = "1" if r == WARMUP_ROUND else str(CHSH_RESTARTS)
        ops = []
        # Werner calls run faster than Schmidt calls; three to one keeps the
        # median call inside the Schmidt cluster instead of between the two.
        for kind in ("schmidt", "schmidt", "schmidt", "werner"):
            phi = float(rng.uniform(0.3, math.pi))
            if kind == "schmidt":
                x = float(rng.uniform(0.3, 0.95))
                ref = checks.ChshRef(**oracles.chsh_schmidt(x, phi))
            else:
                x = float(rng.uniform(0.3, 1.0))
                ref = checks.ChshRef(**oracles.chsh_werner(x, phi))
            ops.append(Op(["chsh", "--state", f"{kind}:{x!r}", "--phi", repr(phi),
                           "--restarts", restarts], 1,
                          lambda text, ref=ref: checks.check_chsh(text, ref)))
        return ops


WORKLOADS = {w.name: w for w in (QubitScan, QubitOneshot, QuditDmax, ChshProtocol)}
