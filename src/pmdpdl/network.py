"""Experiment description and its line-oriented text format.

A network file lists one directive per line, in signal order:

    pulse tc=<t> [omega0=<w>]          required, first
    input theta=<rad> phi=<rad>        required, second
    input h=<re>,<im> v=<re>,<im>      (alternative input form)
    pmd axis=<x>,<y>,<z> dgd=<t>       axis also accepted as theta=,phi=
    pdl axis=<x>,<y>,<z> mu=<m>        or db=<d> (exclusive with mu)
    polarizer theta=<rad> phi=<rad>

Lines starting with '#' and blank lines are ignored. All quantities are
plain decimal numbers (scientific notation allowed) sharing one arbitrary
time unit; only ratios such as dgd/tc matter physically. Parsing is strict:
every rejection names the 1-based line number and the offending token.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .elements import Element, Pdl, Pmd, Polarizer
from .errors import ParseError, ZeroVectorError
from .polarization import (
    Axis3,
    JonesVector,
    axis_from_angles,
    jones_from_angles,
    mu_from_db,
)
from .pulse import (
    GaussianSumState,
    PulseSpec,
    apply_pdl,
    apply_pmd,
    initial_state,
    mean_time,
    project_pure,
    prune,
    transmission,
)
from .weak import WeakResult, network_mean_time


@dataclass(frozen=True)
class NetworkSpec:
    """One experiment: pulse parameters, input polarization and the ordered
    element chain (possibly empty, which is the identity network)."""

    pulse: PulseSpec
    input: JonesVector
    elements: tuple[Element, ...]

    def __post_init__(self):
        self.input.require_normalized("input state")
        object.__setattr__(self, "elements", tuple(self.elements))


@dataclass(frozen=True)
class ExactResult:
    """Observables from the exact engine plus the final field state."""

    mean_time: float
    transmission: float
    state: GaussianSumState


_ELEMENT_KINDS = {kind.directive: kind for kind in (Pmd, Pdl, Polarizer)}
# An attenuation filter's operator has entries up to e^{mu/2}, which stay
# finite up to this mu.
_MAX_MU = 2.0 * math.log(sys.float_info.max)


def _parse_number(line_no: int, token: str, key: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, token, f"malformed number for {key!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, token, f"malformed number for {key!r}")
    return value


def _parse_fields(line_no: int, directive: str, parts: list[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise ParseError(line_no, part, f"expected key=value after {directive!r}")
        if key in fields:
            raise ParseError(line_no, part, f"duplicate field {key!r}")
        fields[key] = value
    return fields


def _reject_unknown(line_no: int, directive: str, fields: dict[str, str], allowed: set[str]):
    for key in fields:
        if key not in allowed:
            raise ParseError(line_no, key, f"unknown field for {directive!r}")


def _require(line_no: int, directive: str, fields: dict[str, str], key: str) -> str:
    if key not in fields:
        raise ParseError(line_no, key, f"missing required field for {directive!r}")
    return fields[key]


def _parse_pair(line_no: int, token: str, key: str) -> tuple[float, float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise ParseError(line_no, token, f"{key!r} needs two comma-separated numbers")
    return _parse_number(line_no, parts[0], key), _parse_number(line_no, parts[1], key)


def _parse_axis(line_no: int, directive: str, fields: dict[str, str]) -> Axis3:
    has_vec = "axis" in fields
    has_ang = "theta" in fields or "phi" in fields
    if has_vec and has_ang:
        raise ParseError(line_no, "axis", f"give {directive!r} either axis= or theta=,phi=, not both")
    if has_vec:
        token = fields["axis"]
        parts = token.split(",")
        if len(parts) != 3:
            raise ParseError(line_no, token, "'axis' needs three comma-separated numbers")
        x, y, z = (_parse_number(line_no, p, "axis") for p in parts)
        try:
            return Axis3(x, y, z)
        except ZeroVectorError:
            raise ParseError(line_no, token, "axis must be a nonzero vector") from None
    if "theta" not in fields or "phi" not in fields:
        missing = "theta" if "theta" not in fields else "phi"
        raise ParseError(line_no, missing, f"missing required field for {directive!r}")
    theta = _parse_number(line_no, fields["theta"], "theta")
    phi = _parse_number(line_no, fields["phi"], "phi")
    return axis_from_angles(theta, phi)


def _parse_nonnegative(line_no: int, fields: dict[str, str], key: str, directive: str) -> float:
    raw = _require(line_no, directive, fields, key)
    value = _parse_number(line_no, raw, key)
    if value < 0:
        raise ParseError(line_no, raw, f"{key!r} must be >= 0")
    return value


def _parse_pulse(line_no: int, fields: dict[str, str]) -> PulseSpec:
    _reject_unknown(line_no, "pulse", fields, {"tc", "omega0"})
    raw = _require(line_no, "pulse", fields, "tc")
    t_c = _parse_number(line_no, raw, "tc")
    if t_c <= 0:
        raise ParseError(line_no, raw, "'tc' must be > 0")
    omega0 = 0.0
    if "omega0" in fields:
        omega0 = _parse_number(line_no, fields["omega0"], "omega0")
    return PulseSpec(t_c, omega0)


def _parse_input(line_no: int, fields: dict[str, str]) -> JonesVector:
    _reject_unknown(line_no, "input", fields, {"theta", "phi", "h", "v"})
    has_ang = "theta" in fields or "phi" in fields
    has_amp = "h" in fields or "v" in fields
    if has_ang and has_amp:
        raise ParseError(line_no, "input", "give either theta=,phi= or h=,v=, not both")
    if has_amp:
        h_re, h_im = _parse_pair(line_no, _require(line_no, "input", fields, "h"), "h")
        v_re, v_im = _parse_pair(line_no, _require(line_no, "input", fields, "v"), "v")
        try:
            return JonesVector(complex(h_re, h_im), complex(v_re, v_im)).normalized()
        except ZeroVectorError:
            raise ParseError(
                line_no, f"{fields['h']} {fields['v']}", "input state must be nonzero"
            ) from None
    theta = _parse_number(line_no, _require(line_no, "input", fields, "theta"), "theta")
    phi = _parse_number(line_no, _require(line_no, "input", fields, "phi"), "phi")
    return jones_from_angles(theta, phi)


def _parse_element(
    line_no: int, directive: str, fields: dict[str, str], omega0: float
) -> Element:
    if directive == "pmd":
        _reject_unknown(line_no, "pmd", fields, {"axis", "theta", "phi", "dgd"})
        axis = _parse_axis(line_no, "pmd", fields)
        dgd = _parse_nonnegative(line_no, fields, "dgd", "pmd")
        if not math.isfinite(omega0 * dgd):
            raise ParseError(line_no, fields["dgd"], "carrier phase omega0*dgd/2 is not finite")
        return Pmd(axis, dgd)
    if directive == "pdl":
        _reject_unknown(line_no, "pdl", fields, {"axis", "theta", "phi", "mu", "db"})
        axis = _parse_axis(line_no, "pdl", fields)
        if "mu" in fields and "db" in fields:
            raise ParseError(line_no, fields["db"], "'mu' and 'db' are mutually exclusive")
        key = "db" if "db" in fields else "mu"
        mu = _parse_nonnegative(line_no, fields, key, "pdl")
        if key == "db":
            mu = mu_from_db(mu)
        if not mu <= _MAX_MU:
            raise ParseError(
                line_no, fields[key], f"attenuation too large: mu must be <= {_MAX_MU!r}"
            )
        return Pdl(axis, mu)
    # polarizer
    _reject_unknown(line_no, "polarizer", fields, {"theta", "phi"})
    theta = _parse_number(line_no, _require(line_no, "polarizer", fields, "theta"), "theta")
    phi = _parse_number(line_no, _require(line_no, "polarizer", fields, "phi"), "phi")
    return Polarizer(jones_from_angles(theta, phi))


def parse_network(text: str) -> NetworkSpec:
    """Parse a network file; element order is the physical signal order."""
    pulse: PulseSpec | None = None
    input_state: JonesVector | None = None
    elements: list[Element] = []
    last_line = 0
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        last_line = line_no
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directive = parts[0]
        fields = _parse_fields(line_no, directive, parts[1:])
        if pulse is None:
            if directive != "pulse":
                raise ParseError(line_no, directive, "expected 'pulse' as the first directive")
            pulse = _parse_pulse(line_no, fields)
        elif input_state is None:
            if directive != "input":
                raise ParseError(line_no, directive, "expected 'input' as the second directive")
            input_state = _parse_input(line_no, fields)
        elif directive in _ELEMENT_KINDS:
            elements.append(_parse_element(line_no, directive, fields, pulse.omega0))
        elif directive in ("pulse", "input"):
            raise ParseError(line_no, directive, f"duplicate {directive!r} directive")
        else:
            raise ParseError(line_no, directive, "unknown directive")
    if pulse is None:
        raise ParseError(last_line + 1, "<end of input>", "missing 'pulse' directive")
    if input_state is None:
        raise ParseError(last_line + 1, "<end of input>", "missing 'input' directive")
    return NetworkSpec(pulse, input_state, tuple(elements))


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_network(spec: NetworkSpec) -> str:
    """Canonical text form, which parse_network() reads back as the same chain.

    Axes are written as 3-vectors before the magnitude field, attenuation
    always in natural units (never dB), the input state in amplitude form
    and polarizers as Poincare angles (their global phase is not physical).
    The round trip is exact for the pulse, the input and every delay and
    attenuation element, since normalizing an already unit axis or state
    leaves it as it is; polarizers rebuilt from their angles agree to
    within a few ulps.
    """
    lines = [f"pulse tc={_fmt(spec.pulse.t_c)} omega0={_fmt(spec.pulse.omega0)}"]
    h, v = complex(spec.input.h), complex(spec.input.v)
    lines.append(
        f"input h={_fmt(h.real)},{_fmt(h.imag)} v={_fmt(v.real)},{_fmt(v.imag)}"
    )
    for element in spec.elements:
        fields = [f"{key}={','.join(map(_fmt, values))}" for key, values in element.text_fields()]
        lines.append(" ".join([element.directive, *fields]))
    return "\n".join(lines) + "\n"


def apply_element(state: GaussianSumState, element: Element) -> GaussianSumState:
    """Send the field state through one element with the exact engine."""
    if isinstance(element, Pmd):
        return apply_pmd(state, element.axis, element.dgd)
    if isinstance(element, Pdl):
        return apply_pdl(state, element.axis, element.mu)
    if isinstance(element, Polarizer):
        return project_pure(state, element.state)
    raise TypeError(f"not a network element: {element!r}")


def run_exact(spec: NetworkSpec) -> ExactResult:
    """Propagate through the chain exactly and report observables. After
    each element coincident delays are merged; no term is ever dropped.
    Amplitudes that overflow end in a PmdPdlError from the moments."""
    state = initial_state(spec.pulse, spec.input)
    for element in spec.elements:
        state = prune(apply_element(state, element))
    return ExactResult(mean_time(state), transmission(state), state)


def run_weak(spec: NetworkSpec) -> WeakResult:
    """Evaluate the chain with the closed-form weak engine."""
    return network_mean_time(spec.input, spec.elements, spec.pulse)


def max_weakness_ratio(spec: NetworkSpec) -> float:
    """Largest dgd/t_c in the chain; 0 when there is no delay element.

    The weak engine is a first-order result in this ratio, so values near or
    above 1 mean its output is qualitative only.
    """
    return max((el.delay / spec.pulse.t_c for el in spec.elements), default=0.0)


def with_scaled_dgd(spec: NetworkSpec, factor: float) -> NetworkSpec:
    """Copy of the spec with every delay element's dgd multiplied by factor."""
    if factor < 0:
        raise ValueError(f"scale factor must be >= 0, got {factor!r}")
    # Only a delay section has a nonzero delay, and its delay is its dgd.
    scaled = tuple(
        replace(el, dgd=el.delay * factor) if el.delay else el for el in spec.elements
    )
    return replace(spec, elements=scaled)
