"""Jones-calculus primitives for two-mode polarization optics.

States live on the Poincare sphere; operators are complex 2x2 matrices built
from the Pauli basis: unitary carrier-phase rotations for birefringent delay,
positive filters for polarization-dependent attenuation, and rank-one
projectors for ideal polarizers.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVectorError

# All matrices here are O(1) by construction, so absolute entry tolerances.
NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12

_LN10 = math.log(10.0)
# Norms (of axes, and of states by their largest part) outside this range
# come from squares that overflowed or lost precision to underflow.
_SAFE_NORM_MIN = 1e-150
_SAFE_NORM_MAX = 1e150

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class JonesVector:
    """Complex field amplitudes on the horizontal/vertical basis.

    Nothing is normalized implicitly: propagation bookkeeping uses
    unnormalized spinors, while operations whose contract needs a unit-norm
    state check it via require_normalized().
    """

    h: complex
    v: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2

    def inner(self, other: "JonesVector") -> complex:
        """<self|other>, conjugating self."""
        return complex(self.h.conjugate() * other.h + self.v.conjugate() * other.v)

    def scaled(self, factor: complex) -> "JonesVector":
        return JonesVector(factor * self.h, factor * self.v)

    def plus(self, other: "JonesVector") -> "JonesVector":
        return JonesVector(self.h + other.h, self.v + other.v)

    def normalized(self) -> "JonesVector":
        largest = max(abs(self.h.real), abs(self.h.imag), abs(self.v.real), abs(self.v.imag))
        if largest == 0.0:
            raise ZeroVectorError("cannot normalize a zero Jones vector")
        if not _SAFE_NORM_MIN < largest < _SAFE_NORM_MAX:
            # The squares overflow or underflow: scale by the largest part first.
            return JonesVector(self.h / largest, self.v / largest).normalized()
        n = math.sqrt(self.norm_sq)
        return JonesVector(self.h / n, self.v / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)

    def require_normalized(self, what: str = "state") -> "JonesVector":
        if abs(self.norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"{what} must be unit norm, got |h|^2+|v|^2 = {self.norm_sq!r}")
        return self


@dataclass(frozen=True)
class Axis3:
    """Unit direction on the Poincare sphere.

    The constructor rescales any nonzero vector to unit length and rejects
    the zero vector outright: silently accepting it would hide config errors.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        n = math.sqrt(x * x + y * y + z * z)
        if not _SAFE_NORM_MIN < n < _SAFE_NORM_MAX:
            # The squares overflow or underflow: scale by the largest
            # component, then take the norm with hypot.
            m = max(abs(x), abs(y), abs(z))
            if 0.0 < m < math.inf:
                x, y, z = x / m, y / m, z / m
            n = math.hypot(x, y, z)
        if n == 0.0:
            raise ZeroVectorError("axis must be a nonzero 3-vector")
        if not math.isfinite(n):
            raise ValueError("axis components must be finite")
        for name, value in zip("xyz", (x, y, z)):
            object.__setattr__(self, name, value / n)

    def negated(self) -> "Axis3":
        return Axis3(-self.x, -self.y, -self.z)

    def angles(self) -> tuple[float, float]:
        """Spherical angles (theta, phi) with theta measured from +z."""
        theta = math.atan2(math.hypot(self.x, self.y), self.z)
        phi = math.atan2(self.y, self.x)
        return theta, phi


AXIS_X = Axis3(1.0, 0.0, 0.0)
AXIS_Y = Axis3(0.0, 1.0, 0.0)
AXIS_Z = Axis3(0.0, 0.0, 1.0)

JONES_H = JonesVector(1.0, 0.0)
JONES_V = JonesVector(0.0, 1.0)


def jones_from_angles(theta: float, phi: float) -> JonesVector:
    """State at Poincare point (theta, phi): cos(theta/2)|H> + sin(theta/2) e^{i phi}|V>."""
    return JonesVector(math.cos(theta / 2.0), math.sin(theta / 2.0) * cmath.exp(1j * phi))


def jones_angles(state: JonesVector) -> tuple[float, float]:
    """Poincare angles of a normalized state, dropping its global phase.

    Returns (theta, phi) with theta in [0, pi] and phi in [0, 2 pi); phi is 0
    whenever it is undefined (at either pole).
    """
    ah, av = abs(state.h), abs(state.v)
    theta = 2.0 * math.atan2(av, ah)
    if ah == 0.0 or av == 0.0:
        return theta, 0.0
    phi = cmath.phase(state.v) - cmath.phase(state.h)
    return theta, phi % (2.0 * math.pi)


def axis_from_angles(theta: float, phi: float) -> Axis3:
    """Unit axis at spherical angles (theta, phi)."""
    st = math.sin(theta)
    return Axis3(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def pauli_on_axis(n: Axis3) -> np.ndarray:
    """Pauli operator along n: Hermitian, traceless, squares to identity."""
    return n.x * PAULI_X + n.y * PAULI_Y + n.z * PAULI_Z


def plus_eigenstate(n: Axis3) -> JonesVector:
    """+1 eigenvector of pauli_on_axis(n); the least attenuated state of a
    pdl_operator on the same axis."""
    theta, phi = n.angles()
    return jones_from_angles(theta, phi)


def minus_eigenstate(n: Axis3) -> JonesVector:
    """-1 eigenvector of pauli_on_axis(n), orthogonal to plus_eigenstate(n).

    Phase convention: reduces to exactly (0, 1) for the +z axis.
    """
    theta, phi = n.angles()
    return JonesVector(-math.sin(theta / 2.0) * cmath.exp(-1j * phi), math.cos(theta / 2.0))


def pdl_operator(n: Axis3, mu: float) -> np.ndarray:
    """Attenuation filter e^{mu sigma_n / 2} = cosh(mu/2) 1 + sinh(mu/2) sigma_n.

    Hermitian positive definite with eigenvalues e^{+-mu/2}; |+n> is the least
    and |-n> the most attenuated state, with extinction ratio e^{2 mu}
    (10 log10(e^{2 mu}) in dB). Negative mu is rejected: flip the axis instead.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0 (got {mu!r}); encode orientation in the axis")
    return math.cosh(mu / 2.0) * IDENTITY + math.sinh(mu / 2.0) * pauli_on_axis(n)


def pmd_phase_operator(n: Axis3, dgd: float, omega0: float) -> np.ndarray:
    """Carrier-phase rotation e^{i omega0 (dgd/2) sigma_n} of a birefringent
    delay section; the identity when omega0 = 0."""
    if dgd < 0:
        raise ValueError(f"dgd must be >= 0, got {dgd!r}")
    half = 0.5 * omega0 * dgd
    return math.cos(half) * IDENTITY + 1j * math.sin(half) * pauli_on_axis(n)


def projector(state: JonesVector) -> np.ndarray:
    """Rank-one projector |state><state| (an ideal polarizer)."""
    state.require_normalized("polarizer state")
    a = state.as_array()
    return np.outer(a, a.conj())


def apply_operator(op: np.ndarray, state: JonesVector) -> JonesVector:
    """Apply a 2x2 operator to a Jones vector."""
    return JonesVector(
        complex(op[0, 0] * state.h + op[0, 1] * state.v),
        complex(op[1, 0] * state.h + op[1, 1] * state.v),
    )


def mu_from_db(db: float) -> float:
    """Attenuation parameter mu from an extinction ratio in dB: mu = dB ln(10)/20."""
    if db < 0:
        raise ValueError(f"dB value must be >= 0, got {db!r}")
    return db * _LN10 / 20.0


def db_from_mu(mu: float) -> float:
    """Extinction ratio in dB between the extreme states of a mu filter."""
    return 20.0 * mu / _LN10


def is_hermitian(op: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.max(np.abs(op - op.conj().T)) <= atol)


def expectation(op: np.ndarray, psi: JonesVector) -> float:
    """<psi|op|psi> for a Hermitian op and a normalized psi."""
    if not is_hermitian(op):
        raise ValueError("expectation value requires a Hermitian operator")
    psi.require_normalized()
    a = psi.as_array()
    return float(np.real(np.vdot(a, op @ a)))


def bloch_vector(psi: JonesVector) -> tuple[float, float, float]:
    """Poincare-sphere coordinates of a normalized state."""
    return (
        expectation(PAULI_X, psi),
        expectation(PAULI_Y, psi),
        expectation(PAULI_Z, psi),
    )
