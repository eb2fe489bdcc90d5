"""Property tests: both engines against an independent frequency-domain
evaluation and against the symmetries of the physics.

Chains are generated as plain tuples, written in the network file format
and parsed, so the oracle in frequency_domain.py never sees a pmdpdl object.
Examples are derandomized and bounded so the suite stays deterministic and
fast; any warning fails a test.
"""
import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmdpdl import parse_network, run_exact, run_weak

from frequency_domain import evaluate, jones, network_text

ENGINE_SETTINGS = settings(
    derandomize=True, max_examples=100, deadline=None, database=None
)
pytestmark = [
    pytest.mark.filterwarnings("error"),
    # Hypothesis imports libcst to print a failing example, and that import warns.
    pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst"),
]

# Agreement is stated relative to the chain's total dgd, the scale of every
# arrival time it can produce.
TIME_TOL = 1e-12
TRANSMISSION_RTOL = 1e-12
# Below this transmission the oracle's mean time loses too many digits.
MIN_TRANSMISSION = 1e-3

unit = st.floats(min_value=-1.0, max_value=1.0)
axes = st.tuples(unit, unit, unit).filter(lambda a: math.hypot(*a) > 0.1)
polar = st.floats(min_value=0.0, max_value=math.pi)
azimuth = st.floats(min_value=0.0, max_value=2.0 * math.pi)
# The exact engine merges delays closer than 1e-15 tc into the earlier one,
# so a section with a smaller nonzero dgd collapses into a shift of -dgd/2:
# an error under 1e-15 tc, but not small against the total dgd. So a
# nonzero dgd here stays far above that distance.
dgds = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.5))
mus = st.floats(min_value=0.0, max_value=1.5)
delays = st.tuples(st.just("pmd"), axes, dgds)
elements = st.one_of(
    delays,
    st.tuples(st.just("pdl"), axes, mus),
    st.tuples(st.just("polarizer"), polar, azimuth),
)
chains = st.lists(elements, max_size=6)
t_cs = st.floats(min_value=0.5, max_value=2.0)
omega0s = st.floats(min_value=0.0, max_value=3.0)
inputs = st.tuples(polar, azimuth)


def antipode(theta, phi):
    return math.pi - theta, phi + math.pi


def negated(axis):
    return tuple(-c for c in axis)


def total_dgd(chain):
    return sum(el[2] for el in chain if el[0] == "pmd")


def engines(t_c, omega0, psi, chain):
    """(exact, weak) mean times, for a chain that clearly transmits."""
    assume(evaluate(t_c, omega0, psi, chain)[1] > MIN_TRANSMISSION)
    spec = parse_network(network_text(t_c, omega0, psi, chain))
    return run_exact(spec).mean_time, run_weak(spec).mean_time


@ENGINE_SETTINGS
@given(t_cs, omega0s, inputs, chains)
def test_exact_engine_matches_frequency_domain(t_c, omega0, angles, chain):
    psi = jones(*angles)
    expected_time, expected_transmission = evaluate(t_c, omega0, psi, chain)
    assume(expected_transmission > MIN_TRANSMISSION)
    result = run_exact(parse_network(network_text(t_c, omega0, psi, chain)))
    assert abs(result.mean_time - expected_time) <= TIME_TOL * total_dgd(chain)
    assert result.transmission == pytest.approx(expected_transmission, rel=TRANSMISSION_RTOL)


@ENGINE_SETTINGS
@given(t_cs, omega0s, inputs, st.lists(delays, max_size=6))
def test_lossless_chain_keeps_transmission_one(t_c, omega0, angles, chain):
    spec = parse_network(network_text(t_c, omega0, jones(*angles), chain))
    assert run_exact(spec).transmission == pytest.approx(1.0, rel=TRANSMISSION_RTOL)
    assert run_weak(spec).norm_sq == pytest.approx(1.0, rel=TRANSMISSION_RTOL)


@ENGINE_SETTINGS
@given(t_cs, inputs, chains)
def test_negating_delay_axes_flips_mean_time_at_zero_carrier(t_c, angles, chain):
    # At omega0 = 0 a delay section along -n is the one along n at -w.
    flipped = [(k, negated(a), d) if k == "pmd" else (k, a, d) for k, a, d in chain]
    psi = jones(*angles)
    tol = TIME_TOL * total_dgd(chain)
    for before, after in zip(engines(t_c, 0.0, psi, chain), engines(t_c, 0.0, psi, flipped)):
        assert abs(before + after) <= tol


@ENGINE_SETTINGS
@given(t_cs, omega0s, inputs, chains)
def test_negating_delay_axes_and_carrier_flips_mean_time(t_c, omega0, angles, chain):
    # A delay section along -n at carrier -omega0 is the one along n at
    # carrier omega0, seen at frequency -w; the pulse spectrum is even in w.
    flipped = [(k, negated(a), d) if k == "pmd" else (k, a, d) for k, a, d in chain]
    psi = jones(*angles)
    tol = TIME_TOL * total_dgd(chain)
    before = engines(t_c, omega0, psi, chain)
    after = engines(t_c, -omega0, psi, flipped)
    for b, a in zip(before, after):
        assert abs(b + a) <= tol


@ENGINE_SETTINGS
@given(t_cs, omega0s, inputs, chains, st.floats(min_value=0.5, max_value=2.0))
def test_scaling_every_dgd_scales_mean_time(t_c, omega0, angles, chain, s):
    # The chain with every dgd scaled by s, at tc and omega0, is s times the
    # chain itself at tc/s and s omega0: every dgd/tc and carrier phase agree.
    unscaled = [(k, a, d / s) if k == "pmd" else (k, a, d) for k, a, d in chain]
    psi = jones(*angles)
    tol = TIME_TOL * total_dgd(chain)
    scaled = engines(t_c, omega0, psi, chain)
    base = engines(t_c / s, s * omega0, psi, unscaled)
    for a, b in zip(scaled, base):
        assert abs(a - s * b) <= tol


@ENGINE_SETTINGS
@given(t_cs, inputs, chains)
def test_inverting_the_sphere_keeps_mean_time_at_zero_carrier(t_c, angles, chain):
    # Every axis negated, the input and every polarizer sent to its antipode.
    inverted = [
        (k, *antipode(a, d)) if k == "polarizer" else (k, negated(a), d) for k, a, d in chain
    ]
    before = engines(t_c, 0.0, jones(*angles), chain)
    after = engines(t_c, 0.0, jones(*antipode(*angles)), inverted)
    tol = TIME_TOL * total_dgd(chain)
    for b, a in zip(before, after):
        assert abs(b - a) <= tol


@ENGINE_SETTINGS
@given(t_cs, omega0s, inputs, st.floats(min_value=0.0, max_value=2.0 * math.pi), chains)
def test_input_global_phase_does_not_matter(t_c, omega0, angles, phase, chain):
    before = engines(t_c, omega0, jones(*angles), chain)
    after = engines(t_c, omega0, cmath.exp(1j * phase) * jones(*angles), chain)
    tol = TIME_TOL * total_dgd(chain)
    for b, a in zip(before, after):
        assert abs(b - a) <= tol
