"""The element-description contract: each kind states its action once, as
(delay, operator) branches, and everything else is derived from them.

Examples are derandomized and bounded so the suite stays deterministic and
fast; any warning fails a test.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmdpdl import (
    AXIS_X,
    Axis3,
    ParseError,
    Pdl,
    Pmd,
    Polarizer,
    jones_from_angles,
    parse_network,
    pauli_on_axis,
    pdl_operator,
    pmd_phase_operator,
    projector,
)

CONTRACT_SETTINGS = settings(
    derandomize=True, max_examples=200, deadline=None, database=None
)
pytestmark = [
    pytest.mark.filterwarnings("error"),
    # Hypothesis imports libcst to print a failing example, and that import warns.
    pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst"),
]

# Operator entries are O(1): the two constructions of a delay section's
# operator differ by a couple of roundings.
OPERATOR_ATOL = 4e-16
# The delay-weighted sum against (dgd/2) U sigma, relative to dgd/2: the
# reference's own matrix product adds roundings (5.8e-16 seen at most over
# 60,000 random sections).
MOMENT_RTOL = 1e-15
# The largest attenuation whose filter is finite is 2 ln(max double), about
# 1419.57.
MAX_MU = 2.0 * math.log(1.7976931348623157e308)

unit = st.floats(min_value=-1.0, max_value=1.0)
axes = st.tuples(unit, unit, unit).filter(any).map(lambda a: Axis3(*a))
dgds = st.floats(min_value=0.0, max_value=1e3)
mus = st.floats(min_value=0.0, max_value=1419.5)
omegas = st.floats(min_value=-1e3, max_value=1e3)
states = st.builds(
    jones_from_angles,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
elements = st.one_of(
    st.builds(Pmd, axes, dgds), st.builds(Pdl, axes, mus), st.builds(Polarizer, states)
)


@CONTRACT_SETTINGS
@given(elements, omegas)
def test_operator_is_the_sum_of_the_branch_operators(element, omega0):
    (_, first), *rest = element.branches(omega0)
    total = first
    for _, op in rest:
        total = total + op
    assert np.array_equal(element.operator(omega0), total)


@CONTRACT_SETTINGS
@given(axes, dgds, omegas)
def test_delay_section_branches(axis, dgd, omega0):
    element = Pmd(axis, dgd)
    branches = element.branches(omega0)
    assert [delay for delay, _ in branches] == [0.5 * dgd, -0.5 * dgd]
    rotation = pmd_phase_operator(axis, dgd, omega0)
    assert np.abs(element.operator(omega0) - rotation).max() <= OPERATOR_ATOL
    moment = sum(delay * op for delay, op in branches)
    expected = 0.5 * dgd * rotation @ pauli_on_axis(axis)
    assert np.abs(moment - expected).max() <= MOMENT_RTOL * 0.5 * dgd


@CONTRACT_SETTINGS
@given(axes, mus, states, omegas)
def test_filters_have_one_unshifted_branch(axis, mu, state, omega0):
    ((delay, op),) = Pdl(axis, mu).branches(omega0)
    assert delay == 0.0
    assert np.array_equal(op, pdl_operator(axis, mu))
    ((delay, op),) = Polarizer(state).branches(omega0)
    assert delay == 0.0
    assert np.array_equal(op, projector(state))


@CONTRACT_SETTINGS
@given(elements)
def test_equal_elements_compare_and_hash_equal(element):
    twin = replace(element)
    assert twin == element
    assert hash(twin) == hash(element)
    assert len({element, twin}) == 1


def test_shared_matrices_are_read_only():
    ((_, op),) = Pdl(AXIS_X, 0.5).branches()
    with pytest.raises(ValueError):
        op[0, 0] = 0.0


class TestAttenuationBound:
    def test_largest_finite_attenuation_constructs(self):
        assert np.isfinite(Pdl(AXIS_X, 1419.5).operator()).all()

    @pytest.mark.parametrize("mu", [1500.0, math.nextafter(MAX_MU, math.inf), math.inf])
    def test_larger_attenuation_names_the_bound(self, mu):
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1419\.5654"):
            Pdl(AXIS_X, mu)

    def test_negative_and_nan_are_rejected(self):
        for mu in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mu must be in"):
                Pdl(AXIS_X, mu)

    def test_parser_keeps_its_numbered_error(self):
        with pytest.raises(ParseError) as info:
            parse_network("pulse tc=1\ninput theta=0 phi=0\npdl axis=1,0,0 mu=1500\n")
        assert (info.value.line_no, info.value.token) == (3, "1500")
        assert "1419.5654" in str(info.value)
