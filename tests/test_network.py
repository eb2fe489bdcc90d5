import math

import numpy as np
import pytest

from pmdpdl import (
    AXIS_X,
    AXIS_Z,
    JONES_H,
    JONES_V,
    Axis3,
    JonesVector,
    NearZeroTransmissionError,
    NetworkSpec,
    ParseError,
    Pdl,
    Pmd,
    Polarizer,
    PulseSpec,
    bloch_vector,
    jones_from_angles,
    max_weakness_ratio,
    parse_network,
    projector,
    run_exact,
    run_weak,
    serialize_network,
    with_scaled_dgd,
)

from frequency_domain import evaluate, parse_text
from helpers import random_axis, random_state, total_dgd

# Chain 13 of the exact_chains benchmark input at seed 21 (512 terms, total
# dgd 12.159). Dropping each term lighter than 1e-12 of the total weight
# removed 8 terms and moved its mean time by 7.7e-7.
DROPPED_TERMS_CHAIN = """\
pulse tc=1.718803593671669 omega0=1.4475414596510472
input theta=1.2363676963666532 phi=2.7344395078676285
pmd axis=-0.5461339141510085,0.4343129766086024,0.716316959287908 dgd=0.3419402628641211
pmd axis=0.03754069922095711,-0.7608682919978853,-0.647819525897624 dgd=2.7348658829637316
pdl axis=-0.7941882967404826,-0.43864182469002533,-0.42054524007894356 mu=0.12574260838723814
pmd axis=0.15171339437382386,-0.7959893309539329,-0.5859897874324116 dgd=2.863304367673984
pdl axis=-0.6060615831663124,-0.6164860167701605,-0.5026274450692128 mu=0.09807185237659778
pmd axis=0.16684711491653034,-0.8151496585893243,-0.5547008872768622 dgd=1.7837162162388376
pdl axis=0.669770581544001,0.16913490267119732,-0.7230496198717038 mu=0.28316050573790735
pmd axis=0.8564913943006506,-0.4684090501845243,0.2168304710924167 dgd=0.7569924102283022
pmd axis=0.8571047329757601,-0.40196036137313895,0.32217905672983527 dgd=1.5523940746538145
pdl axis=-0.22902781442929465,0.3902980897029871,0.8917475323161481 mu=0.26561533331878456
pmd axis=0.4384629775518687,0.7266528363360076,0.5288911728902126 dgd=0.621949476293161
pdl axis=0.7095929674750109,0.15585728537962226,0.6871581529052122 mu=0.13370291863065883
pmd axis=-0.38254808489624226,-0.8947858374720301,-0.2302504458230108 dgd=1.2824191968557315
pmd axis=0.26438210419429076,-0.7872305924858851,-0.557108694274395 dgd=0.22167449152881752
"""

MINIMAL = """pulse tc=1.0
input theta=0.0 phi=0.0
pmd axis=0,0,1 dgd=0.5
"""


def parse_error(text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse_network(text)
    return err.value


class TestParseNetwork:
    def test_minimal_file(self):
        spec = parse_network(MINIMAL)
        assert spec.pulse == PulseSpec(1.0, 0.0)
        assert spec.input == JonesVector(1.0, 0.0)
        assert spec.elements == (Pmd(AXIS_Z, 0.5),)

    def test_empty_element_list_is_identity_network(self):
        spec = parse_network("pulse tc=2.0\ninput theta=1.0 phi=0.5\n")
        assert spec.elements == ()

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\npulse tc=1.0\n  # indented comment\ninput theta=0 phi=0\n\npmd axis=0,0,1 dgd=1\n"
        assert len(parse_network(text).elements) == 1

    def test_db_converts_to_mu(self):
        text = "pulse tc=1\ninput theta=0 phi=0\npdl axis=1,0,0 db=8.685889638\n"
        el = parse_network(text).elements[0]
        assert isinstance(el, Pdl)
        assert el.mu == pytest.approx(1.0, abs=1e-9)

    def test_axis_as_poincare_angles(self):
        text = "pulse tc=1\ninput theta=0 phi=0\npmd theta=0 phi=0 dgd=1\n"
        el = parse_network(text).elements[0]
        assert (el.axis.x, el.axis.y, el.axis.z) == pytest.approx((0, 0, 1), abs=1e-12)

    def test_axis_normalized(self):
        text = "pulse tc=1\ninput theta=0 phi=0\npdl axis=3,0,4 mu=0.2\n"
        el = parse_network(text).elements[0]
        assert (el.axis.x, el.axis.y, el.axis.z) == pytest.approx((0.6, 0.0, 0.8))

    def test_huge_and_tiny_axis_components_normalize(self):
        # x*x overflows at 1e200 and underflows at 1e-200; both must still
        # parse to the unit axis, the same as axis=1,0,0.
        base = parse_network("pulse tc=1\ninput theta=0 phi=0\npmd axis=1,0,0 dgd=0.5\n")
        for token in ("1e200,0,0", "1e-200,0,0", "1.5e308,0,0"):
            text = f"pulse tc=1\ninput theta=0 phi=0\npmd axis={token} dgd=0.5\n"
            spec = parse_network(text)
            assert spec == base
            assert serialize_network(spec) == serialize_network(base)

    def test_huge_and_tiny_input_amplitudes_normalize(self):
        # |h|^2 overflows at 1e200 and underflows at 1e-200; both must parse
        # to the same state as h=1,0.
        base = parse_network("pulse tc=1\ninput h=1,0 v=0,0\n")
        for token in ("1e200,0", "1e-200,0"):
            spec = parse_network(f"pulse tc=1\ninput h={token} v=0,0\n")
            assert spec == base
            assert serialize_network(spec) == serialize_network(base)

    def test_input_amplitude_form(self):
        text = "pulse tc=1\ninput h=1,0 v=0,1\npmd axis=0,0,1 dgd=1\n"
        spec = parse_network(text)
        assert spec.input.h == pytest.approx(1 / math.sqrt(2))
        assert spec.input.v == pytest.approx(1j / math.sqrt(2))

    def test_omega0_optional(self):
        spec = parse_network("pulse tc=1 omega0=3.5\ninput theta=0 phi=0\n")
        assert spec.pulse.omega0 == 3.5

    def test_polarizer_line(self):
        text = "pulse tc=1\ninput theta=0 phi=0\npolarizer theta=1.2 phi=0.3\n"
        el = parse_network(text).elements[0]
        assert isinstance(el, Polarizer)
        assert abs(el.state.norm_sq - 1) < 1e-12

    def test_element_order_preserved(self):
        text = (
            "pulse tc=1\ninput theta=0 phi=0\n"
            "pdl axis=1,0,0 mu=0.1\npmd axis=0,0,1 dgd=2\npdl axis=0,1,0 mu=0.2\n"
        )
        kinds = [type(el) for el in parse_network(text).elements]
        assert kinds == [Pdl, Pmd, Pdl]

    def test_scientific_notation(self):
        spec = parse_network("pulse tc=1e2\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=1.5E-3\n")
        assert spec.pulse.t_c == 100.0
        assert spec.elements[0].dgd == 1.5e-3


class TestParseDiagnostics:
    def test_unknown_directive(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmx axis=0,0,1 dgd=1\n")
        assert err.line_no == 3 and err.token == "pmx"
        assert "line 3" in str(err) and "pmx" in str(err)

    def test_missing_pulse_first(self):
        err = parse_error("input theta=0 phi=0\n")
        assert err.line_no == 1 and err.token == "input"

    def test_missing_input_second(self):
        err = parse_error("pulse tc=1\npmd axis=0,0,1 dgd=1\n")
        assert err.line_no == 2 and err.token == "pmd"

    def test_empty_file(self):
        err = parse_error("# only a comment\n")
        assert err.token == "<end of input>"
        assert "line 2" in str(err)

    def test_missing_required_field(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1\n")
        assert err.line_no == 3 and err.token == "dgd"

    def test_duplicate_field(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=1 dgd=2\n")
        assert err.line_no == 3 and err.token == "dgd=2"

    def test_zero_axis(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,0 dgd=1\n")
        assert err.line_no == 3 and err.token == "0,0,0"

    def test_negative_dgd_names_field(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=-1\n")
        assert err.line_no == 3 and err.token == "-1"
        assert "dgd" in str(err)

    def test_negative_mu(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npdl axis=1,0,0 mu=-0.5\n")
        assert err.line_no == 3 and err.token == "-0.5"

    def test_negative_tc(self):
        err = parse_error("pulse tc=-2\ninput theta=0 phi=0\n")
        assert err.line_no == 1 and err.token == "-2"

    def test_malformed_number(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=abc\n")
        assert err.line_no == 3 and err.token == "abc"

    def test_non_finite_number(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=inf\n")
        assert err.line_no == 3 and err.token == "inf"

    def test_mu_db_exclusive(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npdl axis=1,0,0 mu=1 db=3\n")
        assert err.line_no == 3

    def test_axis_and_angles_conflict(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 theta=0 phi=0 dgd=1\n")
        assert err.line_no == 3

    def test_axis_wrong_arity(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=1,2 dgd=1\n")
        assert err.line_no == 3 and err.token == "1,2"

    def test_unknown_field(self):
        err = parse_error("pulse tc=1 foo=2\ninput theta=0 phi=0\n")
        assert err.line_no == 1 and err.token == "foo"

    def test_bare_token(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=1 junk\n")
        assert err.line_no == 3 and err.token == "junk"

    def test_duplicate_pulse_directive(self):
        err = parse_error("pulse tc=1\ninput theta=0 phi=0\npulse tc=2\n")
        assert err.line_no == 3 and err.token == "pulse"

    def test_zero_input_state(self):
        err = parse_error("pulse tc=1\ninput h=0,0 v=0,0\n")
        assert err.line_no == 2

    @pytest.mark.parametrize(
        "element, token",
        [
            ("pdl axis=1,0,0 db=1e308", "1e308"),  # mu = db ln(10)/20 overflows
            ("pdl axis=1,0,0 mu=1421", "1421"),  # cosh(mu/2) overflows
            ("pdl axis=0,0,1 mu=1419.6", "1419.6"),  # cosh + sinh overflows
        ],
    )
    def test_attenuation_with_overflowing_operator(self, element, token):
        err = parse_error(f"pulse tc=1\ninput theta=0 phi=0\n{element}\n")
        assert (err.line_no, err.token) == (3, token)

    def test_largest_attenuation_has_finite_operator(self):
        spec = parse_network("pulse tc=1\ninput theta=0 phi=0\npdl axis=0,0,1 mu=1419.5\n")
        assert np.isfinite(spec.elements[0].operator()).all()

    def test_carrier_phase_overflow(self):
        text = "pulse tc=1 omega0=1e300\ninput theta=0 phi=0\npmd axis=1,0,0 dgd=1e10\n"
        err = parse_error(text)
        assert (err.line_no, err.token) == (3, "1e10")

    def test_every_diagnostic_names_line_and_token(self):
        fixtures = [
            "input theta=0 phi=0\n",
            "pulse tc=1\npmd axis=0,0,1 dgd=1\n",
            "pulse tc=1\ninput theta=0 phi=0\nbogus x=1\n",
            "pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,0 dgd=1\n",
            "pulse tc=1\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=oops\n",
            "pulse tc=1\ninput theta=0 phi=0\npdl axis=1,0,0\n",
        ]
        for text in fixtures:
            err = parse_error(text)
            assert f"line {err.line_no}" in str(err)
            assert repr(err.token) in str(err)


def random_spec(rng) -> NetworkSpec:
    elements = []
    for _ in range(int(rng.integers(0, 6))):
        r = rng.random()
        if r < 0.4:
            elements.append(Pmd(random_axis(rng), float(rng.uniform(0, 3))))
        elif r < 0.8:
            elements.append(Pdl(random_axis(rng), float(rng.uniform(0, 2))))
        else:
            elements.append(
                Polarizer(
                    jones_from_angles(
                        float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
                    )
                )
            )
    pulse = PulseSpec(float(rng.uniform(0.1, 100)), float(rng.uniform(0, 10)))
    return NetworkSpec(pulse, random_state(rng), tuple(elements))


def assert_specs_match(a: NetworkSpec, b: NetworkSpec, tol=1e-12):
    assert abs(a.pulse.t_c - b.pulse.t_c) <= tol
    assert abs(a.pulse.omega0 - b.pulse.omega0) <= tol
    # input states may differ by a global phase only
    assert abs(abs(a.input.inner(b.input)) - 1.0) <= tol
    assert len(a.elements) == len(b.elements)
    for ea, eb in zip(a.elements, b.elements):
        assert type(ea) is type(eb)
        if isinstance(ea, (Pmd, Pdl)):
            for coord in ("x", "y", "z"):
                assert abs(getattr(ea.axis, coord) - getattr(eb.axis, coord)) <= tol
            if isinstance(ea, Pmd):
                assert abs(ea.dgd - eb.dgd) <= tol
            else:
                assert abs(ea.mu - eb.mu) <= tol
        else:
            assert np.max(np.abs(projector(ea.state) - projector(eb.state))) <= tol


class TestSerializeNetwork:
    def test_round_trip_100_random_specs(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            spec = random_spec(rng)
            again = parse_network(serialize_network(spec))
            assert (again.pulse, again.input) == (spec.pulse, spec.input)
            assert len(again.elements) == len(spec.elements)
            for old, new in zip(spec.elements, again.elements):
                if isinstance(old, Polarizer):
                    assert type(new) is Polarizer
                    assert np.max(np.abs(old.state.as_array() - new.state.as_array())) <= 2e-15
                else:
                    assert new == old

    def test_canonical_field_order(self):
        spec = NetworkSpec(
            PulseSpec(1.0), JONES_H, (Pmd(AXIS_Z, 0.5), Pdl(AXIS_X, 0.3))
        )
        lines = serialize_network(spec).splitlines()
        assert lines[2].startswith("pmd axis=") and lines[2].index("axis=") < lines[2].index("dgd=")
        assert lines[3].index("axis=") < lines[3].index("mu=")

    def test_mu_serialized_in_natural_units(self):
        spec = NetworkSpec(PulseSpec(1.0), JONES_H, (Pdl(AXIS_X, 1.0),))
        text = serialize_network(spec)
        assert "mu=1.0" in text and "db=" not in text

    def test_polarizer_round_trips_as_angles(self):
        state = jones_from_angles(2.1, 5.5)
        spec = NetworkSpec(PulseSpec(1.0), JONES_H, (Polarizer(state),))
        again = parse_network(serialize_network(spec))
        assert_specs_match(spec, again)


class TestRunExact:
    def test_identity_network(self):
        spec = NetworkSpec(PulseSpec(1.0), jones_from_angles(1.0, 0.3), ())
        result = run_exact(spec)
        assert result.mean_time == 0.0
        assert result.transmission == pytest.approx(1.0, abs=1e-12)

    def test_single_pmd_h_input(self):
        spec = parse_network(MINIMAL)
        assert run_exact(spec).mean_time == pytest.approx(0.25, abs=1e-15)

    def test_crossed_polarizer_raises(self):
        spec = NetworkSpec(
            PulseSpec(1.0), JONES_H, (Pmd(AXIS_Z, 0.5), Polarizer(JONES_V))
        )
        with pytest.raises(NearZeroTransmissionError):
            run_exact(spec)

    def test_no_term_is_dropped(self):
        spec = parse_network(DROPPED_TERMS_CHAIN)
        expected_time, expected_transmission = evaluate(*parse_text(DROPPED_TERMS_CHAIN))
        result = run_exact(spec)
        assert abs(result.mean_time - expected_time) <= 1e-12 * total_dgd(spec)
        assert result.transmission == pytest.approx(expected_transmission, rel=1e-12)


class TestRunWeak:
    def test_single_pmd_delegation(self):
        spec = parse_network(MINIMAL)
        result = run_weak(spec)
        assert result.mean_time == pytest.approx(0.25, abs=1e-15)
        assert result.per_element_shifts == (result.mean_time,)

    def test_polarizer_equals_saturated_filter(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            psi = random_state(rng)
            target = jones_from_angles(
                float(rng.uniform(0.3, math.pi - 0.3)), float(rng.uniform(0, 2 * math.pi))
            )
            if abs(target.inner(psi)) ** 2 < 0.05:
                continue
            axis = Axis3(*bloch_vector(target))
            pulse = PulseSpec(1.0)
            chain_pol = (Pmd(AXIS_Z, 1e-3), Polarizer(target))
            chain_pdl = (Pmd(AXIS_Z, 1e-3), Pdl(axis, 30.0))
            a = run_weak(NetworkSpec(pulse, psi, chain_pol)).mean_time
            b = run_weak(NetworkSpec(pulse, psi, chain_pdl)).mean_time
            assert a == pytest.approx(b, abs=1e-6)

    def test_empty_network(self):
        spec = NetworkSpec(PulseSpec(1.0), JONES_H, ())
        assert run_weak(spec).mean_time == 0.0

    def test_agreement_with_exact_when_weak(self):
        text = (
            "pulse tc=1\ninput theta=0.9 phi=0.4\n"
            "pmd axis=0,0,1 dgd=0.01\npdl axis=1,0,0 mu=1\npmd axis=0,1,1 dgd=0.005\n"
        )
        spec = parse_network(text)
        exact = run_exact(spec).mean_time
        weak = run_weak(spec).mean_time
        bound = 5.0 * 0.015 * 0.01**2
        assert abs(exact - weak) <= bound


class TestHelpers:
    def test_max_weakness_ratio(self):
        spec = parse_network(
            "pulse tc=10\ninput theta=0 phi=0\npmd axis=0,0,1 dgd=2\npdl axis=1,0,0 mu=1\n"
        )
        assert max_weakness_ratio(spec) == pytest.approx(0.2)
        assert max_weakness_ratio(NetworkSpec(PulseSpec(1.0), JONES_H, ())) == 0.0

    def test_with_scaled_dgd(self):
        spec = parse_network(MINIMAL)
        scaled = with_scaled_dgd(spec, 0.1)
        assert scaled.elements[0].dgd == pytest.approx(0.05)
        assert spec.elements[0].dgd == 0.5

    def test_networkspec_requires_normalized_input(self):
        with pytest.raises(ValueError):
            NetworkSpec(PulseSpec(1.0), JonesVector(1.0, 1.0), ())
