"""Exact propagation of a polarized Gaussian pulse through element chains.

The field is kept in closed form as a finite sum of delayed Gaussian
envelopes, each carrying an (unnormalized) Jones spinor. Every term leaves
an element as one term per (delay, operator) branch of it, and every
observable reduces to pairwise Gaussian overlaps.
There is no time grid, no FFT and no discretization error, which is what
makes this engine usable as ground truth for the closed-form weak engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import Pdl, Pmd, Polarizer
from .errors import NearZeroTransmissionError, PmdPdlError
from .polarization import (
    Axis3,
    JonesVector,
    apply_operator,
    pauli_on_axis,  # noqa: F401 - perfbench's tracer wraps it here
    pdl_operator,  # noqa: F401 - perfbench's tracer wraps it here
)

# Below this fraction of a unit-norm input the arrival time has no meaning.
NEAR_ZERO_NORM_SQ = 1e-12
# Delays within this many ulps of the largest |delay| differ only by rounding.
_MERGE_ULPS = 4
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse parameters: coherence time t_c (envelope width) and
    carrier offset omega0 (0 turns all carrier-phase rotations off)."""

    t_c: float
    omega0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t_c) and self.t_c > 0):
            raise ValueError(f"t_c must be positive and finite, got {self.t_c!r}")


@dataclass(frozen=True)
class Term:
    """One delayed Gaussian envelope and its spinor amplitude."""

    delay: float
    amp: JonesVector


@dataclass(frozen=True)
class GaussianSumState:
    """Immutable field state: a pulse spec plus a sum of delayed terms."""

    pulse: PulseSpec
    terms: tuple[Term, ...]


def _overlap_exponent(d, t_c: float):
    """(d / (2 sqrt2 t_c))^2 for delay differences d, a float or an array;
    d is scaled first, so it overflows only where the overlap is 0 anyway."""
    s = d / t_c / _TWO_SQRT2
    return s * s


def gaussian_overlap(delay_a: float, delay_b: float, t_c: float) -> float:
    """Overlap of two unit-norm envelope amplitudes centered at the given
    delays: exp(-(a-b)^2 / (8 t_c^2))."""
    d = delay_a - delay_b
    return math.exp(-_overlap_exponent(d, t_c))


def initial_state(pulse: PulseSpec, psi: JonesVector) -> GaussianSumState:
    """Fresh pulse centered at t = 0 with polarization psi (unit norm)."""
    psi.require_normalized("input state")
    return GaussianSumState(pulse, (Term(0.0, psi),))


def _apply_branches(state: GaussianSumState, branches: tuple) -> GaussianSumState:
    """Send every term through every (delay, operator) branch of one element.
    Amplitudes that vanish identically are not kept."""
    out = []
    for term in state.terms:
        for delay, op in branches:
            amp = apply_operator(op, term.amp)
            if amp.h != 0 or amp.v != 0:
                out.append(Term(term.delay + delay, amp))
    return GaussianSumState(state.pulse, tuple(out))


def apply_pmd(state: GaussianSumState, axis: Axis3, dgd: float) -> GaussianSumState:
    """Split every term along the eigenmodes of a delay section (unitary)."""
    return _apply_branches(state, Pmd(axis, dgd).branches(state.pulse.omega0))


def apply_pdl(state: GaussianSumState, axis: Axis3, mu: float) -> GaussianSumState:
    """Attenuate: every spinor through the filter e^{mu sigma_axis / 2}."""
    return _apply_branches(state, Pdl(axis, mu).branches())


def project_pure(state: GaussianSumState, phi: JonesVector) -> GaussianSumState:
    """Ideal polarizer: keep the component along phi in every term."""
    return _apply_branches(state, Polarizer(phi).branches())


def _pairwise_moments(state: GaussianSumState) -> tuple[float, float]:
    """Total norm^2 and first delay moment via pairwise Gaussian overlaps;
    PmdPdlError when either is not finite (the field overflowed)."""
    if not state.terms:
        return 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.array([t.delay for t in state.terms])
        a = np.array([[t.amp.h, t.amp.v] for t in state.terms], dtype=complex)
        gram = np.real(a.conj() @ a.T)
        dd = d[:, None] - d[None, :]
        weights = gram * np.exp(-_overlap_exponent(dd, state.pulse.t_c))
        norm_sq = float(weights.sum())
        moment = float(0.5 * (weights * (d[:, None] + d[None, :])).sum())
    if not (math.isfinite(norm_sq) and math.isfinite(moment)):
        raise PmdPdlError("the field overflows: its energy or delay moment is not finite")
    return norm_sq, moment


def transmission(state: GaussianSumState) -> float:
    """Output energy over input energy for a unit-norm input (clipped at 0
    against rounding)."""
    norm_sq, _ = _pairwise_moments(state)
    return max(norm_sq, 0.0)


def mean_time(state: GaussianSumState) -> float:
    """Energy-weighted mean arrival time of the pulse.

    Raises NearZeroTransmissionError when essentially no light gets through.
    """
    norm_sq, moment = _pairwise_moments(state)
    if norm_sq < NEAR_ZERO_NORM_SQ:
        raise NearZeroTransmissionError(
            f"transmitted energy {norm_sq:.3e} is below {NEAR_ZERO_NORM_SQ:g}; "
            "arrival time undefined"
        )
    return moment / norm_sq


def _envelope(t, t_c: float):
    """Envelope amplitude g(t): g(t)^2 is a unit-area Gaussian of width t_c."""
    return (t_c * math.sqrt(2.0 * math.pi)) ** -0.5 * np.exp(-(t * t) / (4.0 * t_c * t_c))


def intensity(state: GaussianSumState, t):
    """Detected power at time t (scalar or array), >= 0 everywhere."""
    t_arr = np.asarray(t, dtype=float)
    field_h = np.zeros(t_arr.shape, dtype=complex)
    field_v = np.zeros(t_arr.shape, dtype=complex)
    for term in state.terms:
        g = _envelope(t_arr - term.delay, state.pulse.t_c)
        field_h += term.amp.h * g
        field_v += term.amp.v * g
    out = np.abs(field_h) ** 2 + np.abs(field_v) ** 2
    if np.ndim(t) == 0:
        return float(out)
    return out


def intensity_profile(
    state: GaussianSumState, n_points: int = 2001, pad: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sampling of intensity over the span of all delays plus
    pad * t_c on each side."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    delays = [t.delay for t in state.terms] or [0.0]
    lo = min(delays) - pad * state.pulse.t_c
    hi = max(delays) + pad * state.pulse.t_c
    grid = np.linspace(lo, hi, n_points)
    return grid, intensity(state, grid)


def prune(state: GaussianSumState) -> GaussianSumState:
    """Merge terms whose delays are equal up to rounding into one.

    Delays closer than a few ulps of the largest |delay| are merged; no
    term is dropped, and distinct delays, however close, stay distinct.
    """
    if not state.terms:
        return state
    ordered = sorted(state.terms, key=lambda term: term.delay)
    eps = _MERGE_ULPS * math.ulp(max(abs(ordered[0].delay), abs(ordered[-1].delay)))
    merged = [ordered[0]]
    for term in ordered[1:]:
        last = merged[-1]
        if term.delay - last.delay < eps:
            merged[-1] = Term(last.delay, last.amp.plus(term.amp))
        else:
            merged.append(term)
    return GaussianSumState(state.pulse, tuple(merged))
