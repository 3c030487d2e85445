"""CHSH correlation experiments on two-qubit states.

The CHSH combination F = E(A1,B1) + E(A1,B2) + E(A2,B1) - E(A2,B2) is
linear in the correlation matrix, F = sum_ij beta_ij T_ij, and is
preserved when a cyclic unitary on B is compensated by conjugating
Bob's observables.  ``run_protocol`` turns that invariance into a
reconstruction: optimal settings are located before and after the
operation using only F evaluations, the rotation linking the two Bob
frames is read off, and the induced shift is estimated from it.

With one party's axes fixed, F = a1 . c1 + a2 . c2 is linear in each of
the other party's axes, so its maximum over unit axes is reached at
a_k = c_k / |c_k| (the fact behind the Horodecki CHSH bound).  Reading
the two coefficient vectors off F takes 12 evaluations per stage, and
no search is needed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import decompose
from .cyclic import (
    TOL_CYCLIC,
    CyclicUnitary,
    _shift_from_radicand,
    apply_cyclic,
    conjugation_matrix,
    cyclic_from_matrix,
    shift_direct,
)
from .errors import ConsistencyError, DimensionError, RecoveryError
from .operators import _pauli, gell_mann_basis, tensor

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

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


def correlator(state, alice_axis, bob_axis):
    """E = Tr(rho (a.sigma) (x) (b.sigma)) for a two-qubit state."""
    if state.dims != (2, 2):
        raise DimensionError(f"correlator needs a two-qubit state, got dims {state.dims}")
    op = tensor(_pauli(alice_axis), _pauli(bob_axis))
    return float(np.trace(state.rho @ op).real)


def chsh_expectation(state, settings):
    """CHSH combination of the four correlators at the given settings."""
    return (correlator(state, settings.alice_1, settings.bob_1)
            + correlator(state, settings.alice_1, settings.bob_2)
            + correlator(state, settings.alice_2, settings.bob_1)
            - correlator(state, settings.alice_2, settings.bob_2))


def chsh_from_bloch(beta, t_matrix):
    """F evaluated as the contraction sum_ij beta_ij T_ij."""
    return float(np.sum(np.asarray(beta) * np.asarray(t_matrix)))


def _cross_matrix(u):
    """Matrix of v -> u x v."""
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def pauli_conjugate(axis, phi):
    """Rotation matrix of Pauli conjugation by exp(i phi/2 axis.sigma).

    Returns R with U sigma_i U^dag = sum_k R[i, k] sigma_k, which is the
    proper rotation by phi about ``axis``.
    """
    u = np.asarray(axis, dtype=float)
    if u.shape != (3,):
        raise DimensionError("axis must be a 3-vector")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("axis must be nonzero")
    u = u / nrm
    return (math.cos(phi) * np.eye(3)
            + math.sin(phi) * _cross_matrix(u)
            + (1.0 - math.cos(phi)) * np.outer(u, u))


def rotation_from_unitary(u):
    """Conjugation rotation R[i, k] = Tr(sigma_k U sigma_i U^dag)/2 of a qubit unitary."""
    return conjugation_matrix(u, gell_mann_basis(2)).T


def transported_settings(settings, u):
    """Settings with Bob's axes carried through the conjugation of U.

    The returned settings satisfy F(rho_f, transported) = F(rho_0,
    original) for rho_f produced by the cyclic unitary U.
    """
    r = rotation_from_unitary(u)
    return MeasurementSettings(
        alice_1=settings.alice_1,
        alice_2=settings.alice_2,
        bob_1=r.T @ settings.bob_1,
        bob_2=r.T @ settings.bob_2,
    )


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


def _linear_coefficients(value_fn, slot):
    """Coefficient vector of the linearly entering axis in slot 0 or 1.

    F is linear in each axis separately, so finite differences of F at
    opposite probe axes read the coefficient vector off exactly.
    """
    coeff = np.empty(3)
    probes = (X_AXIS, Y_AXIS, Z_AXIS)
    for i, probe in enumerate(probes):
        if slot == 0:
            coeff[i] = 0.5 * (value_fn(probe, Z_AXIS) - value_fn(-probe, Z_AXIS))
        else:
            coeff[i] = 0.5 * (value_fn(Z_AXIS, probe) - value_fn(Z_AXIS, -probe))
    return coeff


def _optimal_pair(value_fn, flat_message):
    """Exact maximizing axis pair of a value linear in each of two unit axes.

    F(a1, a2) = a1 . c1 + a2 . c2 is largest at a_k = c_k / |c_k|.  A
    coefficient vector at float noise leaves its axis unconstrained,
    which raises RecoveryError with ``flat_message``.
    """
    c1 = _linear_coefficients(value_fn, 0)
    c2 = _linear_coefficients(value_fn, 1)
    n1 = np.linalg.norm(c1)
    n2 = np.linalg.norm(c2)
    if n1 < FLAT_TOL or n2 < FLAT_TOL:
        raise RecoveryError(flat_message)
    return c1 / n1, c2 / n2


def run_protocol(state, u, *, restarts=8, rng=None, tol_match=MATCH_TOL,
                 tol_cyclic=TOL_CYCLIC):
    """Reconstruct a cyclic unitary's shift from CHSH data alone.

    Stage 1 fixes Bob at sigma_1, sigma_2 and finds Alice's optimal
    axes on the initial state; stage 2 fixes Alice there and finds
    Bob's optimal axes on the final state.  Each optimum is the exact
    closed form read off 12 F evaluations.  The two Bob frames are
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

    def f_initial(alice_1, alice_2):
        return chsh_expectation(state, MeasurementSettings(
            alice_1=alice_1, alice_2=alice_2, bob_1=X_AXIS, bob_2=Y_AXIS))

    alice_1, alice_2 = _optimal_pair(
        f_initial,
        "stage-1 optimum is not unique: the correlation matrix leaves an "
        "Alice axis unconstrained (rank below 2)",
    )
    f_max_initial = f_initial(alice_1, alice_2)

    state_f = apply_cyclic(state, unit)

    def f_final(bob_1, bob_2):
        return chsh_expectation(state_f, MeasurementSettings(
            alice_1=alice_1, alice_2=alice_2, bob_1=bob_1, bob_2=bob_2))

    bob_1, bob_2 = _optimal_pair(
        f_final,
        "stage-2 optimum is not unique: a Bob axis is unconstrained on the "
        "final state (correlation rank below 2)",
    )
    f_max_final = f_final(bob_1, bob_2)

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
        stage1=StageResult(axis_1=alice_1, axis_2=alice_2, f_value=f_max_initial),
        stage2=StageResult(axis_1=bob_1, axis_2=bob_2, f_value=f_max_final),
        recovered_rotation=rotation,
        recovered_beta_f=beta_f_rec,
        estimated_d=float(estimated_d),
    )
