"""CHSH correlation experiments on two-qubit states.

The CHSH combination F = E(A1,B1) + E(A1,B2) + E(A2,B1) - E(A2,B2) is
linear in the correlation matrix, F = sum_ij beta_ij T_ij, and is
preserved when a cyclic unitary on B is compensated by conjugating
Bob's observables.  ``run_protocol`` turns that invariance into a
reconstruction: optimal settings are located before and after the
operation using only joint measurements, the rotation linking the two
Bob frames is read off, and the induced shift is estimated from it.

With one party's axes fixed, F = a1 . c1 + a2 . c2 is linear in each of
the other party's axes, so its maximum over unit axes is reached at
a_k = c_k / |c_k| (the fact behind the Horodecki CHSH bound).  Each
stage measures one 3x2 table of correlators, every probe axis e_i
against the fixed party's two axes; c1 and c2 are the sum and the
difference of its columns, and no search is needed.
"""

from dataclasses import dataclass

import numpy as np

from .bloch import decompose
from .cyclic import (
    TOL_CYCLIC,
    CyclicUnitary,
    _shift_from_radicand,
    apply_cyclic,
    cyclic_from_matrix,
    shift_direct,
)
from .errors import ConsistencyError, DimensionError, RecoveryError
from .operators import _pauli

PROBES = np.eye(3)[:, None]  # e_x, e_y, e_z, each against both axes of the other party
BOB_INITIAL = np.eye(3)[:2]  # sigma_1 and sigma_2

FLAT_TOL = 1e-8
MATCH_TOL = 1e-6


def _unit(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{name} must be a 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a unit vector, got norm {np.linalg.norm(v)}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Two Alice axes and two Bob axes, each a unit 3-vector."""

    alice_1: np.ndarray
    alice_2: np.ndarray
    bob_1: np.ndarray
    bob_2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alice_1", _unit(self.alice_1, "alice_1"))
        object.__setattr__(self, "alice_2", _unit(self.alice_2, "alice_2"))
        object.__setattr__(self, "bob_1", _unit(self.bob_1, "bob_1"))
        object.__setattr__(self, "bob_2", _unit(self.bob_2, "bob_2"))


def measurement_matrix(settings):
    """T_ij = (n1+n2)_i m1_j + (n1-n2)_i m2_j, so that F = sum beta_ij T_ij."""
    plus = settings.alice_1 + settings.alice_2
    minus = settings.alice_1 - settings.alice_2
    return np.outer(plus, settings.bob_1) + np.outer(minus, settings.bob_2)


def _correlators(state, alice_axes, bob_axes):
    """E = Tr(rho (a.sigma) (x) (b.sigma)) over stacks of axes that broadcast.

    One contraction over rho reshaped to (2, 2, 2, 2), with the broadcast
    shape of the two stacks less their last axis.
    """
    if state.dims != (2, 2):
        raise DimensionError(f"correlator needs a two-qubit state, got dims {state.dims}")
    r = state.rho.reshape(2, 2, 2, 2)  # r[i, j, k, l] = <ij| rho |kl>
    return np.einsum("ijkl,...ki,...lj->...", r, _pauli(alice_axes), _pauli(bob_axes)).real


def _chsh(state, alice, bob):
    """F from the 2x2 table E(alice_k, bob_l) of two axes on each side."""
    e = _correlators(state, np.asarray(alice)[:, None], np.asarray(bob)[None])
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def correlator(state, alice_axis, bob_axis):
    """E = Tr(rho (a.sigma) (x) (b.sigma)) for a two-qubit state."""
    return float(_correlators(state, alice_axis, bob_axis))


def chsh_expectation(state, settings):
    """CHSH combination of the four correlators at the given settings."""
    return _chsh(state, (settings.alice_1, settings.alice_2), (settings.bob_1, settings.bob_2))


def chsh_from_bloch(beta, t_matrix):
    """F evaluated as the contraction sum_ij beta_ij T_ij."""
    return float(np.sum(np.asarray(beta) * np.asarray(t_matrix)))


@dataclass(frozen=True, eq=False)
class StageResult:
    """Optimal settings of one protocol stage and the F value reached."""

    axis_1: np.ndarray
    axis_2: np.ndarray
    f_value: float


@dataclass(frozen=True, eq=False)
class ChshTranscript:
    """Record of a two-stage reconstruction run."""

    stage1: StageResult
    stage2: StageResult
    recovered_rotation: np.ndarray
    recovered_beta_f: np.ndarray
    estimated_d: float

    def to_json_dict(self):
        return {
            "stage1": {
                "alice_axis_1": self.stage1.axis_1.tolist(),
                "alice_axis_2": self.stage1.axis_2.tolist(),
                "f_max": self.stage1.f_value,
            },
            "stage2": {
                "bob_axis_1": self.stage2.axis_1.tolist(),
                "bob_axis_2": self.stage2.axis_2.tolist(),
                "f_value": self.stage2.f_value,
            },
            "recovered_rotation": self.recovered_rotation.tolist(),
            "recovered_beta_f": self.recovered_beta_f.tolist(),
            "estimated_d": self.estimated_d,
        }


def _optimal_pair(table, flat_message):
    """Exact maximizing axis pair of F(a1, a2) = a1 . c1 + a2 . c2.

    ``table[i, l]`` is the correlator of probe axis e_i with the other
    party's fixed axis l, so c1 and c2 are the sum and the difference of
    its columns.  F is largest at a_k = c_k / |c_k|, returned as the rows
    of a 2x3 array.  A coefficient vector at float noise leaves its axis
    unconstrained, which raises RecoveryError with ``flat_message``.
    """
    c = np.array([table[:, 0] + table[:, 1], table[:, 0] - table[:, 1]])
    norms = np.linalg.norm(c, axis=1)
    if norms.min() < FLAT_TOL:
        raise RecoveryError(flat_message)
    return c / norms[:, None]


def run_protocol(state, u, *, restarts=8, rng=None, tol_match=MATCH_TOL,
                 tol_cyclic=TOL_CYCLIC):
    """Reconstruct a cyclic unitary's shift from CHSH data alone.

    Stage 1 fixes Bob at sigma_1, sigma_2 and finds Alice's optimal
    axes on the initial state; stage 2 fixes Alice there and finds
    Bob's optimal axes on the final state.  Each optimum is the exact
    closed form read off six correlators, the 3x2 table of the probe
    axes against the fixed party's two axes, and each F value is the
    CHSH combination of one 2x2 table.  The two Bob frames are
    linked by the conjugation rotation of U, which is read off from the
    stage-2 optimum and turned into an estimate of the induced shift.

    The identification is sound when Bob's initial axes are principal
    directions of the correlation matrix (true for Schmidt-aligned
    states, Werner states and every maximally entangled state).  States
    that break it, and rank-deficient correlation matrices that leave
    an optimum flat, raise RecoveryError rather than returning a bogus
    estimate.

    ``restarts`` and ``rng`` are accepted for compatibility and have no
    effect: no step of the protocol is a search or draws random numbers.
    ``tol_cyclic`` is the commutation tolerance of the cyclic-unitary
    checks, as in ``d_max``.
    """
    if state.dims != (2, 2):
        raise DimensionError(f"protocol needs a two-qubit state, got dims {state.dims}")
    unit = (u if isinstance(u, CyclicUnitary)
            else cyclic_from_matrix(state, u, tol_cyclic=tol_cyclic))

    alice = _optimal_pair(
        _correlators(state, PROBES, BOB_INITIAL),
        "stage-1 optimum is not unique: the correlation matrix leaves an "
        "Alice axis unconstrained (rank below 2)",
    )
    f_max_initial = _chsh(state, alice, BOB_INITIAL)

    state_f = apply_cyclic(state, unit)
    bob_1, bob_2 = bob = _optimal_pair(
        _correlators(state_f, alice, PROBES),
        "stage-2 optimum is not unique: a Bob axis is unconstrained on the "
        "final state (correlation rank below 2)",
    )
    f_max_final = _chsh(state_f, alice, bob)

    if abs(f_max_final - f_max_initial) > tol_match:
        raise RecoveryError(
            "stage-2 maximum does not reproduce the stage-1 maximum "
            f"({f_max_final:.9g} vs {f_max_initial:.9g}); the initial Bob axes "
            "are not principal directions of this state's correlation matrix, "
            "so the rotated-frame identification is unsound here"
        )
    if abs(float(bob_1 @ bob_2)) > 1e-6:
        raise RecoveryError(
            "recovered Bob axes are not orthogonal; the rotated-frame "
            "identification failed for this state"
        )

    e1 = bob_1 / np.linalg.norm(bob_1)
    e2 = bob_2 - (e1 @ bob_2) * e1
    e2 /= np.linalg.norm(e2)
    rotation = np.vstack([e1, e2, np.cross(e1, e2)])

    beta_0 = decompose(state).beta
    beta_f_rec = beta_0 @ rotation
    # 0.25 (|beta|^2 - sum beta beta_f) as a norm of the difference, the
    # cancellation-free form that shift_correlation uses.
    diff = beta_0 - beta_f_rec
    estimated_d = _shift_from_radicand(0.125 * float(np.sum(diff * diff)))

    reference = shift_direct(state, unit, tol_cyclic=tol_cyclic)
    if abs(estimated_d - reference) > tol_match:
        raise ConsistencyError(
            f"protocol estimate {estimated_d:.9g} disagrees with the direct "
            f"shift {reference:.9g}"
        )
    return ChshTranscript(
        stage1=StageResult(axis_1=alice[0], axis_2=alice[1], f_value=f_max_initial),
        stage2=StageResult(axis_1=bob_1, axis_2=bob_2, f_value=f_max_final),
        recovered_rotation=rotation,
        recovered_beta_f=beta_f_rec,
        estimated_d=float(estimated_d),
    )
