"""Closed-form arrival-time results for pre- and post-selected pulses.

Everything here treats a birefringent delay as a polarization measurement
whose pointer is the pulse envelope: conditional outcome probabilities, the
exact single-section arrival time at any measurement strength, weak values
under pure (polarizer) and attenuation-based post-selection, the per-element
shift decomposition for an arbitrary chain, and the principal output states.
The pulse engine provides the independent ground truth these formulas are
tested against.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elements import Element, element_operator
from .errors import (
    DegeneratePostSelectionError,
    NearZeroTransmissionError,
    OrthogonalPostSelectionError,
    PmdPdlError,
)
from .polarization import (
    AXIS_Z,
    IDENTITY,
    Axis3,
    JonesVector,
    apply_operator,
    minus_eigenstate,
    pauli_on_axis,
    plus_eigenstate,
)
from .pulse import NEAR_ZERO_NORM_SQ, PulseSpec, gaussian_overlap

# Below this post-selection probability the conditioned value has lost all
# floating-point digits.
ORTHO_OVERLAP_SQ = 1e-10


@dataclass(frozen=True)
class WeakResult:
    """Chain result: total mean arrival time, the squared norm of the
    filtered polarization state, and one shift entry per element (zero for
    elements that carry no delay)."""

    mean_time: float
    norm_sq: float
    per_element_shifts: tuple[float, ...]


def abl_prob_h(psi: JonesVector, phi: JonesVector) -> float:
    """Probability that the light took the |H> path, given preparation psi
    and post-selection phi (the classical rule for sequential events)."""
    psi.require_normalized("input state")
    phi.require_normalized("post-selected state")
    weight_h = abs(phi.h) ** 2 * abs(psi.h) ** 2
    weight_v = abs(phi.v) ** 2 * abs(psi.v) ** 2
    den = weight_h + weight_v
    if den == 0.0:
        raise DegeneratePostSelectionError(
            "both path probabilities vanish for this preparation/post-selection pair"
        )
    return weight_h / den


def mean_time_pure_general(
    psi: JonesVector,
    phi: JonesVector,
    dgd: float,
    t_c: float,
    omega0: float = 0.0,
) -> float:
    """Mean arrival time after one z-axis delay section and a polarizer phi.

    Exact at any measurement strength dgd/t_c, interpolating between the
    outcome-probability value (strong) and the weak-value shift (weak).
    """
    psi.require_normalized("input state")
    phi.require_normalized("post-selected state")
    if dgd < 0:
        raise ValueError(f"dgd must be >= 0, got {dgd!r}")
    rot = cmath.exp(1j * omega0 * dgd / 2.0)
    a = phi.h.conjugate() * (rot * psi.h)
    b = phi.v.conjugate() * (rot.conjugate() * psi.v)
    overlap = gaussian_overlap(dgd / 2.0, -dgd / 2.0, t_c)
    den = abs(a) ** 2 + abs(b) ** 2 + 2.0 * (a.conjugate() * b).real * overlap
    if den < NEAR_ZERO_NORM_SQ:
        raise NearZeroTransmissionError(
            f"post-selection passes energy {den:.3e}; arrival time undefined"
        )
    return 0.5 * dgd * (abs(a) ** 2 - abs(b) ** 2) / den


def weak_value_pure(psi: JonesVector, phi: JonesVector, axis: Axis3 = AXIS_Z) -> float:
    """Weak value Re(<phi|sigma_axis|psi> / <phi|psi>).

    Unbounded: post-selecting nearly orthogonal to psi pushes it outside
    [-1, 1], which shows up as an anomalously early or late pulse.
    """
    psi.require_normalized("input state")
    phi.require_normalized("post-selected state")
    ov = phi.inner(psi)
    if abs(ov) ** 2 < ORTHO_OVERLAP_SQ:
        raise OrthogonalPostSelectionError(
            f"|<phi|psi>|^2 = {abs(ov) ** 2:.3e} is below {ORTHO_OVERLAP_SQ:g}"
        )
    num = phi.inner(apply_operator(pauli_on_axis(axis), psi))
    return (num / ov).real


def weak_value_pdl(psi: JonesVector, pdl_axis: Axis3, mu: float) -> float:
    """Weak value of sigma_z when the post-selection is the attenuation
    filter itself: Re(<psi|F^2 sigma_z|psi> / <psi|F^2|psi>).

    mu = 0 returns the plain expectation value; large mu approaches the pure
    post-selection on the filter's least attenuated state.
    """
    psi.require_normalized("input state")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu!r}")
    # F^2 = e^{mu sigma_n} = cosh(mu) 1 + sinh(mu) sigma_n
    f_sq = math.cosh(mu) * IDENTITY + math.sinh(mu) * pauli_on_axis(pdl_axis)
    a = psi.as_array()
    den = float(np.real(np.vdot(a, f_sq @ a)))
    num = complex(np.vdot(a, f_sq @ (pauli_on_axis(AXIS_Z) @ a)))
    return num.real / den


def max_anomalous_shift(dgd: float, mu: float) -> float:
    """Largest mean arrival time reachable with one weak delay section of the
    given dgd followed by a transverse filter of strength mu, over all input
    polarizations: (dgd/2) cosh(mu). The minimum is its negative."""
    if dgd < 0 or mu < 0:
        raise ValueError("dgd and mu must be >= 0")
    return 0.5 * dgd * math.cosh(mu)


def shift_quadratic_forms(
    elements: tuple[Element, ...] | list[Element], omega0: float = 0.0
) -> tuple[np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
    """Input-independent 2x2 forms for a chain's weak arrival-time result.

    Returns (norm_form, shift_forms) where <psi|norm_form|psi> is the squared
    norm of the filtered state and each shift_forms entry (index, form)
    contributes Re<psi|form|psi> / <psi|norm_form|psi> to the mean time,
    attributed to the element at that index: T^dag S (sum_b delay_b op_b) P
    for each element with more than one branch, with P, S and T the operator
    products before it, after it and of the whole chain. Built from one pass
    of prefix/suffix products, so the cost is linear in the chain length.
    Raises PmdPdlError when a form is not finite: the products overflowed.
    """
    ops = [element_operator(el, omega0) for el in elements]
    n = len(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = [IDENTITY]
        for op in ops:
            prefixes.append(op @ prefixes[-1])
        suffixes = [IDENTITY] * (n + 1)
        for k in range(n - 1, -1, -1):
            suffixes[k] = suffixes[k + 1] @ ops[k]
        total = prefixes[n]
        total_dag = total.conj().T
        norm_form = total_dag @ total
        shift_forms = []
        for k, element in enumerate(elements):
            (delay, op), *rest = element.branches(omega0)
            if rest:
                moment = sum((d * o for d, o in rest), delay * op)
                shift_forms.append((k, total_dag @ suffixes[k + 1] @ moment @ prefixes[k]))
    if not np.isfinite([norm_form, *(form for _, form in shift_forms)]).all():
        raise PmdPdlError("the chain's operator products overflow: its forms are not finite")
    return norm_form, tuple(shift_forms)


def network_mean_time(
    psi: JonesVector, elements: tuple[Element, ...] | list[Element], pulse: PulseSpec
) -> WeakResult:
    """Mean arrival time of a weak chain as a sum of per-element shifts.

    Each delay element contributes the weak value of its own axis operator,
    taken between the state evolved up to it and the filter product behind
    it; attenuators and polarizers only shape those weak values. Valid when
    every dgd is small against the pulse coherence time (not enforced here).
    """
    psi.require_normalized("input state")
    norm_form, shift_forms = shift_quadratic_forms(elements, pulse.omega0)
    a = psi.as_array()
    norm_sq = float(np.real(np.vdot(a, norm_form @ a)))
    if norm_sq < NEAR_ZERO_NORM_SQ:
        raise NearZeroTransmissionError(
            f"filtered state norm^2 = {norm_sq:.3e}; arrival time undefined"
        )
    shifts = [0.0] * len(elements)
    for index, form in shift_forms:
        shifts[index] = float(np.real(np.vdot(a, form @ a))) / norm_sq
    return WeakResult(float(sum(shifts)), norm_sq, tuple(shifts))


def psp_pair(
    post_pmd_elements: tuple[Element, ...] | list[Element],
    pmd_axis: Axis3 = AXIS_Z,
    omega0: float = 0.0,
) -> tuple[JonesVector, JonesVector, complex]:
    """Principal output states of a delay section: its eigenmodes evolved
    through everything downstream, normalized, plus their complex overlap
    <slow|fast> (slow conjugated).

    With no downstream attenuation the pair stays orthogonal (overlap 0); a
    single transverse filter of strength mu gives |overlap| = tanh(mu).
    Raises ZeroVectorError if the downstream chain annihilates an eigenmode.
    """
    op = IDENTITY
    for element in post_pmd_elements:
        op = element_operator(element, omega0) @ op
    fast = apply_operator(op, plus_eigenstate(pmd_axis)).normalized()
    slow = apply_operator(op, minus_eigenstate(pmd_axis)).normalized()
    return fast, slow, slow.inner(fast)
