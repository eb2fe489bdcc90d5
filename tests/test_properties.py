"""Property tests: the text format round-trips generated chains, and any
text either parses to a chain the engines can evaluate or is rejected with a
line-numbered ParseError.

Examples are derandomized and bounded so the suite stays deterministic and
fast. Axis components span up to 1e300 in magnitude, where their squares
overflow (and down to subnormals, where they underflow).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmdpdl import (
    Axis3,
    NetworkSpec,
    ParseError,
    Pdl,
    Pmd,
    Polarizer,
    PulseSpec,
    jones_from_angles,
    parse_network,
    serialize_network,
)

PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=200, deadline=None, database=None
)

# A normalized axis has unit norm to within an ulp or so.
UNIT_ATOL = 4e-16
# Polarizers are written as Poincare angles and rebuilt with atan2, cos,
# sin and exp, so they round-trip to within a few roundings, not exactly.
POLARIZER_ATOL = 2e-15

component = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
axes = st.tuples(component, component, component).filter(any).map(lambda v: Axis3(*v))
# The parser rejects a delay section whose carrier phase omega0*dgd/2 is not
# finite and a filter whose operator overflows (mu above about 1419.57), so
# dgd and omega0 stay within 1e150 and mu within 1419.5.
dgds = st.floats(min_value=0.0, max_value=1e150)
mus = st.floats(min_value=0.0, max_value=1419.5)
angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=0.0, max_value=6.28)
)
states = angles.map(lambda a: jones_from_angles(*a))
elements = st.one_of(
    st.builds(Pmd, axes, dgds),
    st.builds(Pdl, axes, mus),
    st.builds(Polarizer, states),
)
pulses = st.builds(
    PulseSpec,
    st.floats(min_value=5e-324, max_value=1e300),
    st.floats(min_value=-1e150, max_value=1e150),
)
specs = st.builds(NetworkSpec, pulses, states, st.lists(elements, max_size=6).map(tuple))


@PROPERTY_SETTINGS
@given(specs)
def test_parse_inverts_serialize(spec):
    again = parse_network(serialize_network(spec))
    assert again.pulse == spec.pulse
    assert again.input == spec.input
    assert len(again.elements) == len(spec.elements)
    for old, new in zip(spec.elements, again.elements):
        if isinstance(old, Polarizer):
            assert type(new) is Polarizer
            for a, b in zip(old.state.as_array(), new.state.as_array()):
                assert abs(a - b) <= POLARIZER_ATOL, (a, b)
        else:
            assert new == old


@PROPERTY_SETTINGS
@given(st.tuples(component, component, component).filter(any))
def test_axis_is_unit_for_any_finite_components(vector):
    axis = Axis3(*vector)
    assert abs(math.hypot(axis.x, axis.y, axis.z) - 1.0) <= UNIT_ATOL
    for coord, component_value in zip("xyz", vector):
        assert math.copysign(1.0, getattr(axis, coord)) == math.copysign(1.0, component_value)


# Network-file text from the format's vocabulary: mostly well-formed lines
# with numbers from 1e-320 to 1e308 in magnitude (and the values where
# squares, exponentials and products overflow), plus malformed tokens.
def mostly(common, rare):
    """common, and rare one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 7 else common)


magnitudes = st.one_of(
    st.floats(min_value=1e-320, max_value=1e308),
    st.sampled_from([1e-320, 1e-200, 1e-160, 1e160, 1e200, 1e300, 1e308, 1419.5, 1421.0]),
)
valid = st.one_of(magnitudes.map(repr), magnitudes.map(lambda x: repr(-x)), st.just("-0"))
malformed = st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "junk", "", "1,2"])
numbers = mostly(valid, malformed)
pairs = st.builds("{},{}".format, numbers, numbers)
triples = st.builds("{},{},{}".format, numbers, numbers, numbers)
soup = st.builds(
    lambda directive, fields: " ".join([directive, *fields]),
    st.sampled_from(["pulse", "input", "pmd", "pdl", "polarizer", "junk", "#", ""]),
    st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(
                ["tc", "omega0", "theta", "phi", "h", "v", "axis", "dgd", "mu", "db", "junk"]
            ),
            st.one_of(numbers, pairs, triples),
        ),
        max_size=4,
    ),
)
positive = mostly(magnitudes.map(repr), numbers)
pulse_lines = st.builds("pulse tc={} omega0={}".format, positive, numbers)
input_lines = st.one_of(
    st.builds("input theta={} phi={}".format, numbers, numbers),
    st.builds("input h={} v={}".format, pairs, pairs),
)
element_lines = st.one_of(
    st.builds("pmd axis={} dgd={}".format, triples, numbers),
    st.builds("pmd theta={} phi={} dgd={}".format, numbers, numbers, numbers),
    st.builds("pdl axis={} mu={}".format, triples, numbers),
    st.builds("pdl axis={} db={}".format, triples, numbers),
    st.builds("polarizer theta={} phi={}".format, numbers, numbers),
    soup,
)
texts = st.builds(
    lambda head, entry, body: "\n".join([head, entry, *body]) + "\n",
    mostly(pulse_lines, soup),
    mostly(input_lines, soup),
    st.lists(element_lines, max_size=4),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(texts)
@pytest.mark.filterwarnings("error")
# Hypothesis imports libcst to print a failing example, and that import warns.
@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
def test_any_text_parses_to_finite_operators_or_a_numbered_error(text):
    try:
        spec = parse_network(text)
    except ParseError as err:
        assert 1 <= err.line_no <= len(text.splitlines()) + 1
        return
    for element in spec.elements:
        assert np.isfinite(element.operator(spec.pulse.omega0)).all()
