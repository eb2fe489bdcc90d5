"""Exact propagation of a polarized Gaussian pulse through element chains.

The field is kept in closed form as a finite sum of delayed Gaussian
envelopes, each carrying an (unnormalized) Jones spinor. A birefringent delay
splits every term along the element axis, attenuators and polarizers act on
the spinors only, and every observable reduces to pairwise Gaussian overlaps.
There is no time grid, no FFT and no discretization error, which is what
makes this engine usable as ground truth for the closed-form weak engine.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearZeroTransmissionError
from .polarization import (
    IDENTITY,
    Axis3,
    JonesVector,
    apply_operator,
    pauli_on_axis,
    pdl_operator,
)

# Below this fraction of a unit-norm input the arrival time has no meaning.
NEAR_ZERO_NORM_SQ = 1e-12
# Delays closer than this (times t_c) are treated as coincident and merged.
_MERGE_DELAY_FACTOR = 1e-15
# Within these bounds on t_c and on the delay span over t_c, the overlap
# exponent d^2 / (8 t_c^2) cannot overflow and is computed as written.
# Beyond the span bound every overlap is 0 anyway.
_PLAIN_TC_MIN = 1e-100
_PLAIN_TC_MAX = 1e100
_PLAIN_SPAN_MAX = 1e40
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


def _overlap_exponent(d, span: float, t_c: float):
    """(d / (2 sqrt2 t_c))^2 for delay differences d: a float, or an array
    whose entries are at most span in magnitude.

    Outside the plain bounds d is scaled before squaring; a square that
    overflows is inf, so its overlap exp(-inf) is 0, with no warning.
    """
    if _PLAIN_TC_MIN <= t_c <= _PLAIN_TC_MAX and span <= _PLAIN_SPAN_MAX * t_c:
        return (d * d) / (8.0 * t_c * t_c)
    with np.errstate(over="ignore"):
        s = d / t_c / _TWO_SQRT2
        return s * s


def gaussian_overlap(delay_a: float, delay_b: float, t_c: float) -> float:
    """Overlap of two unit-norm envelope amplitudes centered at the given
    delays: exp(-(a-b)^2 / (8 t_c^2))."""
    d = delay_a - delay_b
    return math.exp(-_overlap_exponent(d, abs(d), t_c))


def initial_state(pulse: PulseSpec, psi: JonesVector) -> GaussianSumState:
    """Fresh pulse centered at t = 0 with polarization psi (unit norm)."""
    psi.require_normalized("input state")
    return GaussianSumState(pulse, (Term(0.0, psi),))


def apply_pmd(state: GaussianSumState, axis: Axis3, dgd: float) -> GaussianSumState:
    """Split every term along the element's eigenmodes.

    The +axis component is delayed by +dgd/2 and picks up carrier phase
    e^{+i omega0 dgd/2}; the -axis component gets the opposite delay and
    phase. Unitary: total energy is conserved. Term count at most doubles;
    components that vanish identically are not kept.
    """
    if dgd < 0:
        raise ValueError(f"dgd must be >= 0, got {dgd!r}")
    sigma = pauli_on_axis(axis)
    proj_plus = 0.5 * (IDENTITY + sigma)
    proj_minus = 0.5 * (IDENTITY - sigma)
    half = 0.5 * dgd
    phase = cmath.exp(1j * state.pulse.omega0 * half)
    out = []
    for term in state.terms:
        a_plus = apply_operator(proj_plus, term.amp).scaled(phase)
        a_minus = apply_operator(proj_minus, term.amp).scaled(phase.conjugate())
        if a_plus.h != 0 or a_plus.v != 0:
            out.append(Term(term.delay + half, a_plus))
        if a_minus.h != 0 or a_minus.v != 0:
            out.append(Term(term.delay - half, a_minus))
    return GaussianSumState(state.pulse, tuple(out))


def apply_jones_operator(state: GaussianSumState, op: np.ndarray) -> GaussianSumState:
    """Apply a polarization-only 2x2 operator to every term (delays untouched)."""
    return GaussianSumState(
        state.pulse,
        tuple(Term(t.delay, apply_operator(op, t.amp)) for t in state.terms),
    )


def apply_pdl(state: GaussianSumState, axis: Axis3, mu: float) -> GaussianSumState:
    """Attenuate: every spinor through the filter e^{mu sigma_axis / 2}."""
    return apply_jones_operator(state, pdl_operator(axis, mu))


def project_pure(state: GaussianSumState, phi: JonesVector) -> GaussianSumState:
    """Ideal polarizer: keep the component along phi in every term."""
    phi.require_normalized("polarizer state")
    return GaussianSumState(
        state.pulse,
        tuple(Term(t.delay, phi.scaled(phi.inner(t.amp))) for t in state.terms),
    )


def _pairwise_moments(state: GaussianSumState) -> tuple[float, float]:
    """Total norm^2 and first delay moment via pairwise Gaussian overlaps."""
    if not state.terms:
        return 0.0, 0.0
    t_c = state.pulse.t_c
    delays = [t.delay for t in state.terms]
    d = np.array(delays)
    a = np.array([[t.amp.h, t.amp.v] for t in state.terms], dtype=complex)
    gram = np.real(a.conj() @ a.T)
    dd = d[:, None] - d[None, :]
    weights = gram * np.exp(-_overlap_exponent(dd, max(delays) - min(delays), t_c))
    norm_sq = float(weights.sum())
    moment = float(0.5 * (weights * (d[:, None] + d[None, :])).sum())
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
    """Merge terms whose delays differ by less than 1e-15 t_c into one.

    No term is dropped; a merged term moves by less than 1e-15 t_c.
    """
    if not state.terms:
        return state
    eps = _MERGE_DELAY_FACTOR * state.pulse.t_c
    ordered = sorted(state.terms, key=lambda term: term.delay)
    merged = [ordered[0]]
    for term in ordered[1:]:
        last = merged[-1]
        if term.delay - last.delay < eps:
            merged[-1] = Term(last.delay, last.amp.plus(term.amp))
        else:
            merged.append(term)
    return GaussianSumState(state.pulse, tuple(merged))
