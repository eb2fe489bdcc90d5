"""Chain elements, each stating its action once as (delay, operator) branches.

A birefringent delay section (Pmd) is a polarization measurement whose
pointer is the pulse: two branches, one per eigenmode, shift it by +-dgd/2.
An attenuation element (Pdl) or an ideal polarizer is a post-selection
filter: one unshifted branch. Each kind also carries its text-format
`directive`, its differential `delay` and its `text_fields`. Matrices that
do not depend on omega0 are built once, at construction, and take no part
in equality, hashing or repr.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .polarization import (
    IDENTITY,
    Axis3,
    JonesVector,
    jones_angles,
    pauli_on_axis,
    pdl_operator,
    projector,
)

# An attenuation filter's operator has entries up to e^{mu/2}, which stay
# finite up to this mu.
_MAX_MU = 2.0 * math.log(sys.float_info.max)


def element_operator(element: Element, omega0: float = 0.0) -> np.ndarray:
    """2x2 Jones operator of one element, the delay itself excluded: the sum
    of its branch operators."""
    (_, first), *rest = element.branches(omega0)
    return sum((op for _, op in rest), first)


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """The matrix made read-only, since every caller shares it."""
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class Pmd:
    """Birefringent delay: differential group delay dgd along the given axis."""

    directive: ClassVar[str] = "pmd"
    axis: Axis3
    dgd: float
    _eigenprojectors: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.dgd) and self.dgd >= 0):
            raise ValueError(f"dgd must be >= 0 and finite, got {self.dgd!r}")
        sigma = pauli_on_axis(self.axis)
        projectors = (_frozen(0.5 * (IDENTITY + sigma)), _frozen(0.5 * (IDENTITY - sigma)))
        object.__setattr__(self, "_eigenprojectors", projectors)

    @property
    def delay(self) -> float:
        return self.dgd

    def branches(self, omega0: float = 0.0) -> tuple:
        """The +axis eigenmode is delayed by +dgd/2 and picks up carrier phase
        e^{+i omega0 dgd/2}; the -axis eigenmode gets the opposite of both."""
        half = 0.5 * self.dgd
        phase = cmath.exp(1j * omega0 * half)
        plus, minus = self._eigenprojectors
        return ((half, phase * plus), (-half, phase.conjugate() * minus))

    operator = element_operator

    def text_fields(self) -> tuple:
        return (("axis", (self.axis.x, self.axis.y, self.axis.z)), ("dgd", (self.dgd,)))


@dataclass(frozen=True)
class Pdl:
    """Polarization-dependent attenuation of strength mu along the given axis."""

    directive: ClassVar[str] = "pdl"
    delay: ClassVar[float] = 0.0
    axis: Axis3
    mu: float
    _branches: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.mu <= _MAX_MU:
            raise ValueError(f"mu must be in [0, {_MAX_MU!r}] to stay finite, got {self.mu!r}")
        object.__setattr__(self, "_branches", ((0.0, _frozen(pdl_operator(self.axis, self.mu))),))

    def branches(self, omega0: float = 0.0) -> tuple:
        """One unshifted branch: the filter e^{mu sigma_axis / 2}."""
        return self._branches

    operator = element_operator

    def text_fields(self) -> tuple:
        return (("axis", (self.axis.x, self.axis.y, self.axis.z)), ("mu", (self.mu,)))


@dataclass(frozen=True)
class Polarizer:
    """Ideal polarizer transmitting the given state; projector() rejects a
    state that is not unit norm."""

    directive: ClassVar[str] = "polarizer"
    delay: ClassVar[float] = 0.0
    state: JonesVector
    _branches: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_branches", ((0.0, _frozen(projector(self.state))),))

    def branches(self, omega0: float = 0.0) -> tuple:
        """One unshifted branch: the projector onto the transmitted state."""
        return self._branches

    operator = element_operator

    def text_fields(self) -> tuple:
        # Poincare angles: the state's global phase is not physical.
        theta, phi = jones_angles(self.state)
        return (("theta", (theta,)), ("phi", (phi,)))


Element = Pmd | Pdl | Polarizer
