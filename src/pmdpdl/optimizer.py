"""Polarization sweeps and exhaustive element-ordering search.

The headline question answered here: given a bag of delay and attenuation
elements, which ordering maximizes (or minimizes) the extremal mean arrival
time over the input polarization? Instance sizes are small, so orderings are
enumerated exhaustively and every result is deterministic, including
tie-breaks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .elements import Element, Pdl, Pmd
from .errors import NearZeroTransmissionError, TooManyElementsError
from .network import NetworkSpec, run_exact
from .polarization import AXIS_X, AXIS_Z, JonesVector, jones_from_angles
from .pulse import NEAR_ZERO_NORM_SQ, PulseSpec
from .weak import shift_quadratic_forms

DEFAULT_GRID = 721
SPHERE_THETA_GRID = 181
SPHERE_PHI_GRID = 361
MAX_ARRANGEMENT_ELEMENTS = 8
SPHERE_REFINE_ROUNDS = 8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ArrangementResult:
    """Outcome of the exhaustive ordering search. best_order indexes into the
    element list as given; ties resolve to the lexicographically smallest
    index sequence."""

    objective: str
    best_order: tuple[int, ...]
    best_extremum: float
    per_order_table: tuple[tuple[tuple[int, ...], float], ...] | None = None


@dataclass(frozen=True)
class GroupedVsInterleaved:
    """Extremal arrival times of the two canonical five-element layouts."""

    t_grouped: float
    t_interleaved: float
    ratio: float


def _check_objective(objective: str) -> None:
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")


def _best_index(values: np.ndarray, objective: str) -> int | None:
    """Index of the first largest (max) or smallest (min) value; NaN never
    wins, and None means there is no value that is not NaN."""
    usable = ~np.isnan(values)
    if not usable.any():
        return None
    signed = values if objective == "max" else -values
    return int(np.argmax(np.where(usable, signed, -np.inf)))


def _weak_values_on_states(
    elements: tuple[Element, ...], omega0: float, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weak mean times for a batch of input states; returns (times, blocked)."""
    norm_form, shift_forms = shift_quadratic_forms(elements, omega0)
    conj = states.conj()
    den = np.real(np.einsum("gi,ij,gj->g", conj, norm_form, states))
    blocked = den < NEAR_ZERO_NORM_SQ
    total = np.zeros(len(states))
    for _, form in shift_forms:
        total += np.real(np.einsum("gi,ij,gj->g", conj, form, states))
    safe = np.where(blocked, 1.0, den)
    times = np.where(blocked, np.nan, total / safe)
    return times, blocked


def _grid_times(chains, pulse: PulseSpec, thetas: np.ndarray, phis: np.ndarray, engine: str):
    """Mean times of each chain at the Poincare points (thetas[k], phis[k]).

    Yields one array per chain, NaN where the point is blocked. The grid's
    input states are built once for all the chains, and both engines see the
    same states. Linear polarizations are the points at phi = 0.
    """
    half = 0.5 * thetas
    states = np.stack([np.cos(half), np.sin(half) * np.exp(1j * phis)], axis=1)
    if engine == "weak":
        for elements in chains:
            yield _weak_values_on_states(elements, pulse.omega0, states)[0]
    elif engine == "exact":
        states = [JonesVector(h, v) for h, v in states.tolist()]
        for elements in chains:
            times = np.empty(len(states))
            for k, state in enumerate(states):
                try:
                    times[k] = run_exact(NetworkSpec(pulse, state, elements)).mean_time
                except NearZeroTransmissionError:
                    times[k] = math.nan
            yield times
    else:
        raise ValueError(f"unknown engine {engine!r}")


def _signed_time(spec: NetworkSpec, engine: str, sign: float, theta: float, phi: float) -> float:
    """sign times the mean time at one Poincare point; -inf where blocked, so
    that a blocked point never wins a maximization."""
    (value,) = next(
        _grid_times((spec.elements,), spec.pulse, np.array([theta]), np.array([phi]), engine)
    )
    return -math.inf if math.isnan(value) else sign * float(value)


def _grid_size(size: int, name: str) -> int:
    """size, checked: every angle grid needs at least 2 points."""
    if size < 2:
        raise ValueError(f"{name} must be >= 2, got {size!r}")
    return size


def _linear_grid(grid_size: int, name: str = "grid_size") -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, _grid_size(grid_size, name), endpoint=False)


def sweep_polarization(
    spec: NetworkSpec, grid_size: int = DEFAULT_GRID, include_exact: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Mean times over linear input polarizations phi in [0, 2 pi).

    Returns (phis, t_weak, t_exact); t_exact is None unless include_exact.
    Blocked polarizations (no transmitted light) are NaN, not fatal.
    """
    phis = _linear_grid(grid_size)
    zeros = np.zeros(grid_size)
    chain = (spec.elements,)
    t_weak = next(_grid_times(chain, spec.pulse, phis, zeros, "weak"))
    t_exact = None
    if include_exact:
        t_exact = next(_grid_times(chain, spec.pulse, phis, zeros, "exact"))
    return phis, t_weak, t_exact


def _golden_max(f, a: float, b: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximum of a smooth unimodal f on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def extremal_polarization(
    spec: NetworkSpec,
    grid_size: int = DEFAULT_GRID,
    objective: str = "max",
    engine: str = "weak",
) -> tuple[float, float]:
    """(phi, value) of the extremal mean time over linear polarizations.

    Grid scan first, then golden-section refinement in the winning grid
    cell, good to about 1e-6 in value for smooth extrema.
    """
    _check_objective(objective)
    phis = _linear_grid(grid_size)
    values = next(_grid_times((spec.elements,), spec.pulse, phis, np.zeros(grid_size), engine))
    best = _best_index(values, objective)
    if best is None:
        raise NearZeroTransmissionError("every grid polarization is blocked")
    sign = 1.0 if objective == "max" else -1.0
    best_phi, best_val = float(phis[best]), sign * float(values[best])
    step = 2.0 * math.pi / grid_size
    phi_r, val_r = _golden_max(
        lambda p: _signed_time(spec, engine, sign, p, 0.0), best_phi - step, best_phi + step
    )
    if val_r > best_val:
        best_phi, best_val = phi_r, val_r
    return best_phi % (2.0 * math.pi), sign * best_val


def sweep_sphere(
    spec: NetworkSpec,
    n_theta: int = SPHERE_THETA_GRID,
    n_phi: int = SPHERE_PHI_GRID,
    engine: str = "weak",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-sphere sweep: (thetas, phis, values), thetas over [0, pi] and phis
    over [0, 2 pi), with values of shape (n_theta, n_phi) and NaN where blocked."""
    thetas = np.linspace(0.0, math.pi, _grid_size(n_theta, "n_theta"))
    phis = _linear_grid(n_phi, "n_phi")
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = next(_grid_times((spec.elements,), spec.pulse, tt.ravel(), pp.ravel(), engine))
    return thetas, phis, values.reshape(n_theta, n_phi)


def extremal_sphere(
    spec: NetworkSpec,
    n_theta: int = SPHERE_THETA_GRID,
    n_phi: int = SPHERE_PHI_GRID,
    objective: str = "max",
    engine: str = "weak",
) -> tuple[float, float, float]:
    """(theta, phi, value) of the extremal mean time over the whole sphere.

    Grid scan plus SPHERE_REFINE_ROUNDS rounds of alternating golden-section
    refinement in theta and phi within the winning grid cell.
    """
    _check_objective(objective)
    thetas, phis, values = sweep_sphere(spec, n_theta, n_phi, engine)
    best = _best_index(values.ravel(), objective)
    if best is None:
        raise NearZeroTransmissionError("every sphere polarization is blocked")
    i, j = divmod(best, n_phi)
    theta, phi = float(thetas[i]), float(phis[j])
    sign = 1.0 if objective == "max" else -1.0
    h_theta = math.pi / (n_theta - 1)
    h_phi = 2.0 * math.pi / n_phi
    for _ in range(SPHERE_REFINE_ROUNDS):
        theta, signed_value = _golden_max(
            lambda t: _signed_time(spec, engine, sign, t, phi),
            max(0.0, theta - h_theta),
            min(math.pi, theta + h_theta),
        )
        phi, signed_value = _golden_max(
            lambda p: _signed_time(spec, engine, sign, theta, p), phi - h_phi, phi + h_phi
        )
    return theta, phi % (2.0 * math.pi), sign * signed_value


def optimize_arrangement(
    elements: tuple[Element, ...] | list[Element],
    objective: str = "max",
    grid_size: int = DEFAULT_GRID,
    engine: str = "weak",
    pulse: PulseSpec | None = None,
    keep_table: bool = False,
) -> ArrangementResult:
    """Exhaustive search over distinct element orderings.

    Each ordering is scored by the extremal mean time over the linear
    polarization grid; the best ordering wins, with ties going to the
    lexicographically smallest index sequence. Identical elements make
    duplicate orderings, which are evaluated once.
    """
    elements = tuple(elements)
    if len(elements) > MAX_ARRANGEMENT_ELEMENTS:
        raise TooManyElementsError(
            f"{len(elements)} elements exceed the exhaustive-search cap of "
            f"{MAX_ARRANGEMENT_ELEMENTS}"
        )
    _check_objective(objective)
    if not elements:
        raise ValueError("need at least one element to arrange")
    pulse = pulse if pulse is not None else PulseSpec(1.0)
    # Each distinct ordering, keyed by its chain, with its first index sequence.
    orders: dict[tuple[Element, ...], tuple[int, ...]] = {}
    for perm in itertools.permutations(range(len(elements))):
        orders.setdefault(tuple(elements[i] for i in perm), perm)
    phis = _linear_grid(grid_size)
    table = []
    for perm, times in zip(
        orders.values(), _grid_times(orders, pulse, phis, np.zeros(grid_size), engine)
    ):
        best = _best_index(times, objective)
        table.append((perm, math.nan if best is None else float(times[best])))
    best = _best_index(np.array([value for _, value in table]), objective)
    if best is None:
        raise NearZeroTransmissionError("every ordering blocks all grid polarizations")
    return ArrangementResult(
        objective=objective,
        best_order=table[best][0],
        best_extremum=table[best][1],
        per_order_table=tuple(table) if keep_table else None,
    )


def grouped_vs_interleaved(
    dgd_each: float, mu_each: float, grid_size: int = DEFAULT_GRID
) -> GroupedVsInterleaved:
    """Compare the two canonical five-element layouts.

    Grouped is delay-delay-delay then filter-filter (all delays on z, filters
    on x); interleaved alternates delay-filter-delay-filter-delay. Both are
    scored by the refined maximum mean time over linear polarizations.

    The two weak-engine maxima have closed forms. Grouped, the filters act on the summed
    delay: ``(3 dgd/2) cosh(2 mu)``. Interleaved, each transverse filter
    advances the optimal input by one rapidity step, so the chain's three
    shift terms peak at the same input: ``(dgd/2)(cosh(2 mu) + cosh(mu) + 1)``.
    The ratio is ``3 cosh(2 mu) / (cosh(2 mu) + cosh(mu) + 1)``, about 1.79
    at mu = 1, independent of dgd.
    """
    if not dgd_each > 0:
        raise ValueError(f"dgd_each must be > 0, got {dgd_each!r}")
    if mu_each < 0:
        raise ValueError(f"mu_each must be >= 0, got {mu_each!r}")
    delay = Pmd(AXIS_Z, dgd_each)
    filt = Pdl(AXIS_X, mu_each)
    pulse = PulseSpec(1.0)
    psi0 = jones_from_angles(0.0, 0.0)
    grouped = NetworkSpec(pulse, psi0, (delay, delay, delay, filt, filt))
    interleaved = NetworkSpec(pulse, psi0, (delay, filt, delay, filt, delay))
    _, t_grouped = extremal_polarization(grouped, grid_size, "max", "weak")
    _, t_interleaved = extremal_polarization(interleaved, grid_size, "max", "weak")
    return GroupedVsInterleaved(t_grouped, t_interleaved, t_grouped / t_interleaved)
