"""Chain elements and their polarization-only Jones operators.

A network is an ordered list of three element kinds: birefringent delay
sections (Pmd), attenuation elements (Pdl) and ideal polarizers. The delay
action of a Pmd lives in the pulse engine; its operator here is only the
carrier-phase rotation, which is the identity at omega0 = 0.

Each kind carries its text-format `directive`, its differential `delay`
(0 for filters and polarizers), its `operator` and its `text_fields`, the
(key, numbers) pairs it serializes to. Other modules ask the element.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .polarization import (
    Axis3,
    JonesVector,
    jones_angles,
    pdl_operator,
    pmd_phase_operator,
    projector,
)


@dataclass(frozen=True)
class Pmd:
    """Birefringent delay: differential group delay dgd along the given axis."""

    directive: ClassVar[str] = "pmd"
    axis: Axis3
    dgd: float

    def __post_init__(self):
        if not (math.isfinite(self.dgd) and self.dgd >= 0):
            raise ValueError(f"dgd must be >= 0 and finite, got {self.dgd!r}")

    @property
    def delay(self) -> float:
        return self.dgd

    def operator(self, omega0: float = 0.0) -> np.ndarray:
        return pmd_phase_operator(self.axis, self.dgd, omega0)

    def text_fields(self) -> tuple:
        return (("axis", (self.axis.x, self.axis.y, self.axis.z)), ("dgd", (self.dgd,)))


@dataclass(frozen=True)
class Pdl:
    """Polarization-dependent attenuation of strength mu along the given axis."""

    directive: ClassVar[str] = "pdl"
    delay: ClassVar[float] = 0.0
    axis: Axis3
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be >= 0 and finite, got {self.mu!r}")

    def operator(self, omega0: float = 0.0) -> np.ndarray:
        return pdl_operator(self.axis, self.mu)

    def text_fields(self) -> tuple:
        return (("axis", (self.axis.x, self.axis.y, self.axis.z)), ("mu", (self.mu,)))


@dataclass(frozen=True)
class Polarizer:
    """Ideal polarizer transmitting the given (normalized) state."""

    directive: ClassVar[str] = "polarizer"
    delay: ClassVar[float] = 0.0
    state: JonesVector

    def __post_init__(self):
        self.state.require_normalized("polarizer state")

    def operator(self, omega0: float = 0.0) -> np.ndarray:
        return projector(self.state)

    def text_fields(self) -> tuple:
        # Poincare angles: the state's global phase is not physical.
        theta, phi = jones_angles(self.state)
        return (("theta", (theta,)), ("phi", (phi,)))


Element = Pmd | Pdl | Polarizer


def element_operator(element: Element, omega0: float = 0.0) -> np.ndarray:
    """2x2 Jones operator of one element (the delay itself excluded)."""
    return element.operator(omega0)
