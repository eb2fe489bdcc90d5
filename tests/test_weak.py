import math

import numpy as np
import pytest
from scipy.integrate import quad

from pmdpdl import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    JONES_H,
    JONES_V,
    DegeneratePostSelectionError,
    JonesVector,
    NearZeroTransmissionError,
    NetworkSpec,
    OrthogonalPostSelectionError,
    Pdl,
    Pmd,
    Polarizer,
    PulseSpec,
    ZeroVectorError,
    abl_prob_h,
    apply_pdl,
    apply_pmd,
    expectation,
    initial_state,
    intensity,
    jones_from_angles,
    max_anomalous_shift,
    mean_time,
    mean_time_pure_general,
    network_mean_time,
    plus_eigenstate,
    project_pure,
    psp_pair,
    run_exact,
    run_weak,
    transmission,
    weak_value_pdl,
    weak_value_pure,
)
from pmdpdl.polarization import PAULI_Z, pauli_on_axis

from helpers import random_axis, random_state, random_weak_network, total_dgd

PULSE = PulseSpec(1.0)
DIAGONAL = jones_from_angles(math.pi / 2, 0.0)


class TestAblProbH:
    def test_h_post_selection_passes_only_h(self):
        assert abl_prob_h(DIAGONAL, JONES_H) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_post_selection_closed_form(self):
        # with a diagonal analyzer the conditioned H probability is cos^2(theta/2)
        for theta in (0.3, 1.0, 2.5):
            psi = jones_from_angles(theta, 0.0)
            assert abl_prob_h(psi, DIAGONAL) == pytest.approx(
                math.cos(theta / 2) ** 2, rel=1e-12
            )

    def test_matches_separated_pulse_statistics(self):
        # strong-separation oracle: fraction of quadrature-integrated intensity at t > 0
        dgd = 20.0
        for theta in (0.5, 1.2, 2.2):
            psi = jones_from_angles(theta, 0.4)
            state = project_pure(apply_pmd(initial_state(PULSE, psi), AXIS_Z, dgd), DIAGONAL)
            late = quad(lambda t: intensity(state, t), 0.0, dgd / 2 + 10, epsabs=1e-13, limit=400)[0]
            prob = late / transmission(state)
            assert abl_prob_h(psi, DIAGONAL) == pytest.approx(prob, abs=1e-10)

    def test_self_post_selection_well_defined(self):
        psi = jones_from_angles(0.9, 1.1)
        wh = abs(psi.h) ** 4
        wv = abs(psi.v) ** 4
        assert abl_prob_h(psi, psi) == pytest.approx(wh / (wh + wv), rel=1e-12)

    def test_complement(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            psi, phi = random_state(rng), random_state(rng)
            p = abl_prob_h(psi, phi)
            assert 0.0 <= p <= 1.0

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePostSelectionError):
            abl_prob_h(JONES_H, JONES_V)


class TestMeanTimePureGeneral:
    def test_strong_limit_matches_outcome_probabilities(self):
        dgd = 40.0
        for theta in (0.3, 1.0, 2.5):
            psi = jones_from_angles(theta, 0.0)
            p = abl_prob_h(psi, DIAGONAL)
            expected = (dgd / 2) * (2 * p - 1)
            got = mean_time_pure_general(psi, DIAGONAL, dgd, 1.0)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_weak_limit_matches_weak_value(self):
        dgd = 1e-3
        rng = np.random.default_rng(32)
        for _ in range(20):
            psi, phi = random_state(rng), random_state(rng)
            if abs(phi.inner(psi)) ** 2 < 0.01:
                continue
            got = mean_time_pure_general(psi, phi, dgd, 1.0)
            expected = (dgd / 2) * weak_value_pure(psi, phi)
            assert got == pytest.approx(expected, rel=1e-4)

    def test_single_mode_any_strength(self):
        for dgd in (0.01, 1.0, 7.0):
            assert mean_time_pure_general(JONES_H, JONES_H, dgd, 1.0) == pytest.approx(
                dgd / 2, rel=1e-15
            )

    def test_matches_exact_engine_at_any_strength(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi, phi = random_state(rng), random_state(rng)
            dgd = float(rng.uniform(0.01, 10.0))
            omega0 = float(rng.uniform(0, 5.0))
            pulse = PulseSpec(1.0, omega0)
            state = project_pure(apply_pmd(initial_state(pulse, psi), AXIS_Z, dgd), phi)
            exact = mean_time(state)
            formula = mean_time_pure_general(psi, phi, dgd, 1.0, omega0)
            assert formula == pytest.approx(exact, rel=1e-10)

    def test_blocked_post_selection(self):
        with pytest.raises(NearZeroTransmissionError):
            mean_time_pure_general(JONES_H, JONES_V, 1.0, 1.0)

    def test_monotone_between_weak_and_strong_limits(self):
        psi = jones_from_angles(0.9, 0.0)
        phi = jones_from_angles(2.0, 0.0)
        ratios = np.logspace(-3, math.log10(40.0), 25)
        normalized = [
            mean_time_pure_general(psi, phi, float(r), 1.0) / (r / 2) for r in ratios
        ]
        weak_end = weak_value_pure(psi, phi)
        strong_end = 2 * abl_prob_h(psi, phi) - 1
        assert normalized[0] == pytest.approx(weak_end, rel=1e-6)
        assert normalized[-1] == pytest.approx(strong_end, rel=1e-9)
        diffs = np.diff(normalized)
        assert np.all(diffs <= 1e-15) or np.all(diffs >= -1e-15)


class TestWeakValuePure:
    def test_no_post_selection_effect(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            psi = random_state(rng)
            n = random_axis(rng)
            assert weak_value_pure(psi, psi, n) == pytest.approx(
                expectation(pauli_on_axis(n), psi), abs=1e-12
            )

    def test_diagonal_preparation_linear_analyzer(self):
        # symbolic reduction: value is tan((pi/2 - theta_phi)/2) for real states
        psi = jones_from_angles(math.pi / 2, 0.0)
        for theta_phi in (0.2, 0.9, 2.0, 2.8):
            phi = jones_from_angles(theta_phi, 0.0)
            expected = math.tan((math.pi / 2 - theta_phi) / 2)
            assert weak_value_pure(psi, phi) == pytest.approx(expected, rel=1e-12)

    def test_anomalous_amplification(self):
        psi = jones_from_angles(math.pi / 2, 0.0)
        phi = jones_from_angles(math.pi / 2 + 3.0, 0.0)  # nearly orthogonal
        assert abs(weak_value_pure(psi, phi)) > 10.0

    def test_orthogonal_rejected(self):
        with pytest.raises(OrthogonalPostSelectionError):
            weak_value_pure(JONES_H, JONES_V)

    def test_cross_checked_against_exact_engine(self):
        dgd = 1e-3
        rng = np.random.default_rng(42)
        kept = 0
        while kept < 20:
            psi, phi = random_state(rng), random_state(rng)
            if abs(phi.inner(psi)) ** 2 < 0.01:
                continue
            kept += 1
            state = project_pure(apply_pmd(initial_state(PULSE, psi), AXIS_Z, dgd), phi)
            assert mean_time(state) / (dgd / 2) == pytest.approx(
                weak_value_pure(psi, phi), rel=1e-4
            )


class TestWeakValuePdl:
    def test_mu_zero_is_expectation(self):
        for psi in (JONES_H, JONES_V, JonesVector(0.6, 0.8), JonesVector(0.6, 0.8j)):
            assert weak_value_pdl(psi, AXIS_X, 0.0) == expectation(PAULI_Z, psi)

    def test_large_mu_is_pure_post_selection(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            psi = random_state(rng)
            n = random_axis(rng)
            target = plus_eigenstate(n)
            if abs(target.inner(psi)) ** 2 < 0.01:
                continue
            assert weak_value_pdl(psi, n, 20.0) == pytest.approx(
                weak_value_pure(psi, target), abs=1e-6
            )

    def test_scalar_form_equivalence(self):
        # quotient form equals (<sz> + g nz) / (1 + g <sigma_n>) with g = tanh(mu)
        rng = np.random.default_rng(35)
        for _ in range(30):
            psi = random_state(rng)
            n = random_axis(rng)
            mu = float(rng.uniform(0, 2.5))
            g = math.tanh(mu)
            num = expectation(PAULI_Z, psi) + g * n.z
            den = 1.0 + g * expectation(pauli_on_axis(n), psi)
            assert weak_value_pdl(psi, n, mu) == pytest.approx(num / den, rel=1e-12)

    def test_transverse_filter_maximum(self):
        mu = 1.0
        sweep = max(
            weak_value_pdl(jones_from_angles(t, 0.0), AXIS_X, mu)
            for t in np.linspace(0, 2 * math.pi, 10001)
        )
        assert sweep == pytest.approx(math.cosh(mu), rel=1e-5)
        assert sweep <= math.cosh(mu) + 1e-12


class TestMaxAnomalousShift:
    def test_no_filter_no_anomaly(self):
        assert max_anomalous_shift(1.4, 0.0) == 0.7

    def test_unit_case(self):
        assert max_anomalous_shift(1.0, 1.0) == pytest.approx(0.5 * math.cosh(1.0), rel=1e-15)
        assert max_anomalous_shift(1.0, 1.0) == pytest.approx(0.77154, abs=5e-6)

    def test_never_below_half_dgd(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            dgd, mu = rng.uniform(0, 3), rng.uniform(0, 3)
            assert max_anomalous_shift(dgd, mu) >= dgd / 2

    def test_agrees_with_polarization_sweep(self):
        dgd, mu = 1.0, 1.0
        best = max(
            (dgd / 2) * weak_value_pdl(jones_from_angles(t, 0.0), AXIS_X, mu)
            for t in np.linspace(0, 2 * math.pi, 10001)
        )
        assert best == pytest.approx(max_anomalous_shift(dgd, mu), rel=1e-5)


class TestNetworkMeanTime:
    def test_single_delay_is_expectation_shift(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            psi = random_state(rng)
            dgd = float(rng.uniform(0, 0.02))
            result = network_mean_time(psi, (Pmd(AXIS_Z, dgd),), PULSE)
            assert result.mean_time == pytest.approx(
                (dgd / 2) * expectation(PAULI_Z, psi), abs=1e-15
            )

    def test_delay_then_filter_is_pdl_weak_value(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            psi = random_state(rng)
            n = random_axis(rng)
            mu = float(rng.uniform(0, 2))
            dgd = 1e-3
            result = network_mean_time(psi, (Pmd(AXIS_Z, dgd), Pdl(n, mu)), PULSE)
            assert result.mean_time == pytest.approx(
                (dgd / 2) * weak_value_pdl(psi, n, mu), rel=1e-12
            )

    def test_five_element_chain_matches_written_out_forms(self):
        # independent oracle: the three quotients written out as explicit
        # matrix products over the shared squared norm
        mu, dgd = 1.0, 1.0
        f = math.cosh(mu / 2) * np.eye(2) + math.sinh(mu / 2) * np.array([[0, 1], [1, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        m_den = f @ f @ f @ f
        m1 = m_den @ sz
        m2 = f @ f @ f @ sz @ f
        m3 = f @ f @ sz @ f @ f
        elements = (
            Pmd(AXIS_Z, dgd),
            Pdl(AXIS_X, mu),
            Pmd(AXIS_Z, dgd),
            Pdl(AXIS_X, mu),
            Pmd(AXIS_Z, dgd),
        )
        rng = np.random.default_rng(39)
        for _ in range(20):
            psi = random_state(rng)
            a = psi.as_array()
            den = np.vdot(a, m_den @ a).real
            expected = [
                0.5 * dgd * np.vdot(a, m @ a).real / den for m in (m1, m2, m3)
            ]
            result = network_mean_time(psi, elements, PULSE)
            got_pmd_shifts = [result.per_element_shifts[i] for i in (0, 2, 4)]
            assert got_pmd_shifts == pytest.approx(expected, rel=1e-12)
            assert result.per_element_shifts[1] == 0.0
            assert result.per_element_shifts[3] == 0.0

    def test_mean_is_sum_of_shifts_bit_exact(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            spec = random_weak_network(rng)
            result = run_weak(spec)
            assert result.mean_time == sum(result.per_element_shifts)

    def test_empty_chain(self):
        result = network_mean_time(JONES_H, (), PULSE)
        assert result.mean_time == 0.0
        assert result.norm_sq == pytest.approx(1.0, abs=1e-15)
        assert result.per_element_shifts == ()

    def test_global_phase_gauge(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = random_weak_network(rng)
            chi = float(rng.uniform(0, 2 * math.pi))
            rotated = spec.input.scaled(complex(math.cos(chi), math.sin(chi)))
            a = network_mean_time(spec.input, spec.elements, spec.pulse)
            b = network_mean_time(rotated, spec.elements, spec.pulse)
            assert b.mean_time == pytest.approx(a.mean_time, rel=1e-12, abs=1e-15)
            assert b.norm_sq == pytest.approx(a.norm_sq, rel=1e-12)

    def test_blocked_by_crossed_polarizer(self):
        with pytest.raises(NearZeroTransmissionError):
            network_mean_time(JONES_H, (Polarizer(JONES_V),), PULSE)

    def test_polarizer_carrier_rotation_interplay(self):
        # omega0 rotations do not commute with off-axis filters; both engines
        # must track them identically
        pulse = PulseSpec(1.0, 800.0)
        psi = jones_from_angles(1.1, 0.7)
        elements = (Pmd(AXIS_Z, 0.005), Pdl(AXIS_X, 1.2), Pmd(AXIS_Y, 0.003))
        spec = NetworkSpec(pulse, psi, elements)
        exact = run_exact(spec).mean_time
        weak = run_weak(spec).mean_time
        assert weak == pytest.approx(exact, abs=5 * 0.008 * 0.005**2)


class TestOracleEquivalence:
    def test_hundred_random_networks(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(100):
            spec = random_weak_network(rng)
            exact = run_exact(spec).mean_time
            weak = run_weak(spec).mean_time
            worst = max(el.dgd for el in spec.elements if isinstance(el, Pmd))
            bound = 5.0 * total_dgd(spec) * (worst / spec.pulse.t_c) ** 2
            assert abs(exact - weak) <= bound
            checked += 1
        assert checked == 100

    def test_norm_sq_tracks_transmission_in_weak_regime(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            spec = random_weak_network(rng)
            exact = run_exact(spec).transmission
            weak = run_weak(spec).norm_sq
            assert weak == pytest.approx(exact, rel=1e-3)


class TestAnomalyWitness:
    def test_weak_value_beyond_eigenvalue_range_shows_in_arrival_time(self):
        psi = jones_from_angles(math.pi / 2, 0.0)
        phi = jones_from_angles(math.pi / 2 + 2.6, 0.0)
        wv = weak_value_pure(psi, phi)
        assert abs(wv) > 1.0
        dgd = 1e-3
        state = project_pure(apply_pmd(initial_state(PULSE, psi), AXIS_Z, dgd), phi)
        t = mean_time(state)
        assert abs(t) > dgd / 2


class TestPspPair:
    def test_no_downstream_elements(self):
        fast, slow, overlap = psp_pair(())
        assert fast == JONES_H
        assert slow.h == 0.0 and slow.v == 1.0
        assert overlap == 0.0

    def test_transverse_filter_overlap_tanh(self):
        # independent 2x2 oracle
        for mu in (0.3, 1.0, 2.0):
            f = math.cosh(mu / 2) * np.eye(2) + math.sinh(mu / 2) * np.array([[0, 1], [1, 0]])
            a, b = f @ np.array([1, 0]), f @ np.array([0, 1])
            direct = abs(np.vdot(b, a)) / (np.linalg.norm(a) * np.linalg.norm(b))
            _, _, overlap = psp_pair((Pdl(AXIS_X, mu),))
            assert abs(overlap) == pytest.approx(direct, rel=1e-12)
            assert abs(overlap) == pytest.approx(math.tanh(mu), rel=1e-12)

    def test_overlap_is_slow_bra_fast_ket(self):
        # a filter on y mixes the z eigenmodes with a quarter-wave phase:
        # <slow|fast> = i tanh(mu), and the conjugate order would give -i tanh(mu)
        for mu in (0.3, 1.0, 2.0):
            fast, slow, overlap = psp_pair((Pdl(AXIS_Y, mu),))
            assert overlap == slow.inner(fast)
            assert overlap.real == pytest.approx(0.0, abs=1e-15)
            assert overlap.imag == pytest.approx(math.tanh(mu), rel=1e-12)

    def test_general_axis_overlap_modulus(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = random_axis(rng)
            mu = float(rng.uniform(0.1, 2.0))
            fast, slow, overlap = psp_pair((Pdl(n, mu),))
            assert abs(fast.norm_sq - 1.0) < 1e-12
            assert abs(slow.norm_sq - 1.0) < 1e-12
            # transverse component of the filter axis sets the mixing
            assert abs(overlap) <= math.tanh(mu) + 1e-12

    def test_eigenmode_arrival_times(self):
        # injecting each delay eigenmode gives arrival exactly +-dgd/2 for any mu
        dgd, mu = 1.0, 1.0
        for psi, sign in ((JONES_H, 1.0), (JONES_V, -1.0)):
            state = apply_pmd(initial_state(PULSE, psi), AXIS_Z, dgd)
            state = apply_pdl(state, AXIS_X, mu)
            assert mean_time(state) == pytest.approx(sign * dgd / 2, abs=1e-9)

    def test_output_polarizations_are_evolved_eigenmodes(self):
        dgd, mu = 1.0, 0.8
        fast, slow, _ = psp_pair((Pdl(AXIS_X, mu),))
        state = apply_pmd(initial_state(PULSE, JONES_H), AXIS_Z, dgd)
        state = apply_pdl(state, AXIS_X, mu)
        amp = state.terms[0].amp.normalized()
        assert abs(abs(amp.inner(fast)) - 1.0) < 1e-12

    def test_annihilated_eigenmode(self):
        with pytest.raises(ZeroVectorError):
            psp_pair((Polarizer(JONES_V),))
