"""Property tests: the text format round-trips generated chains.

Examples are derandomized and bounded so the suite stays deterministic and
fast. Axis components span up to 1e300 in magnitude, where their squares
overflow (and down to subnormals, where they underflow).
"""
import math

from hypothesis import given, settings, strategies as st

from pmdpdl import (
    Axis3,
    NetworkSpec,
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

# Normalizing an already unit axis or state is not idempotent in the last
# bit, so normalized fields round-trip to within a few ulps, not exactly.
UNIT_ATOL = 4e-16
# Polarizers are written as Poincare angles and rebuilt with atan2, cos,
# sin and exp, which adds a few more roundings.
POLARIZER_ATOL = 2e-15

component = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
axes = st.tuples(component, component, component).filter(any).map(lambda v: Axis3(*v))
magnitude = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)
angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=0.0, max_value=6.28)
)
states = angles.map(lambda a: jones_from_angles(*a))
elements = st.one_of(
    st.builds(Pmd, axes, magnitude),
    st.builds(Pdl, axes, magnitude),
    st.builds(Polarizer, states),
)
pulses = st.builds(
    PulseSpec,
    st.floats(min_value=5e-324, max_value=1e300),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
specs = st.builds(NetworkSpec, pulses, states, st.lists(elements, max_size=6).map(tuple))


def assert_unit_close(a: complex, b: complex, tol: float = UNIT_ATOL) -> None:
    assert abs(a - b) <= tol, (a, b)


@PROPERTY_SETTINGS
@given(specs)
def test_parse_inverts_serialize(spec):
    again = parse_network(serialize_network(spec))
    assert again.pulse == spec.pulse
    assert len(again.elements) == len(spec.elements)
    for a, b in zip(spec.input.as_array(), again.input.as_array()):
        assert_unit_close(a, b)
    for old, new in zip(spec.elements, again.elements):
        assert type(old) is type(new)
        if isinstance(old, Polarizer):
            for a, b in zip(old.state.as_array(), new.state.as_array()):
                assert_unit_close(a, b, POLARIZER_ATOL)
            continue
        magnitude_field = "dgd" if isinstance(old, Pmd) else "mu"
        assert getattr(new, magnitude_field) == getattr(old, magnitude_field)
        for coord in "xyz":
            assert_unit_close(getattr(old.axis, coord), getattr(new.axis, coord))


@PROPERTY_SETTINGS
@given(st.tuples(component, component, component).filter(any))
def test_axis_is_unit_for_any_finite_components(vector):
    axis = Axis3(*vector)
    assert abs(math.hypot(axis.x, axis.y, axis.z) - 1.0) <= UNIT_ATOL
    for coord, component_value in zip("xyz", vector):
        assert math.copysign(1.0, getattr(axis, coord)) == math.copysign(1.0, component_value)
