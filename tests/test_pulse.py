import math

import numpy as np
import pytest
from scipy.integrate import quad

from pmdpdl import (
    AXIS_X,
    AXIS_Z,
    JONES_H,
    JONES_V,
    GaussianSumState,
    JonesVector,
    NearZeroTransmissionError,
    PulseSpec,
    Term,
    apply_pdl,
    apply_pmd,
    gaussian_overlap,
    initial_state,
    intensity,
    intensity_profile,
    jones_from_angles,
    mean_time,
    minus_eigenstate,
    parse_network,
    plus_eigenstate,
    project_pure,
    prune,
    run_exact,
    transmission,
)

from helpers import random_axis, random_state, random_strong_network

PULSE = PulseSpec(1.0)


def quad_moments(state, pad=10.0):
    """Independent oracle: adaptive quadrature of the intensity profile."""
    delays = [t.delay for t in state.terms] or [0.0]
    lo = min(delays) - pad * state.pulse.t_c
    hi = max(delays) + pad * state.pulse.t_c
    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    total = quad(lambda t: intensity(state, t), lo, hi, **kw)[0]
    first = quad(lambda t: t * intensity(state, t), lo, hi, **kw)[0]
    return total, first


class TestInitialState:
    def test_single_centered_term(self):
        s = initial_state(PULSE, JONES_H)
        assert len(s.terms) == 1
        assert s.terms[0].delay == 0.0
        assert s.terms[0].amp == JONES_H

    def test_unit_transmission(self):
        assert transmission(initial_state(PULSE, jones_from_angles(1.0, 2.0))) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_time(self):
        assert mean_time(initial_state(PULSE, JONES_H)) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            initial_state(PULSE, JonesVector(1.0, 1.0))


class TestApplyPmd:
    def test_h_input_single_late_term(self):
        s = apply_pmd(initial_state(PULSE, JONES_H), AXIS_Z, 0.8)
        assert len(s.terms) == 1
        assert s.terms[0].delay == 0.4
        assert mean_time(s) == pytest.approx(0.4, abs=1e-15)

    def test_diagonal_input_splits_symmetrically(self):
        s = apply_pmd(initial_state(PULSE, jones_from_angles(math.pi / 2, 0)), AXIS_Z, 0.8)
        assert sorted(t.delay for t in s.terms) == [-0.4, 0.4]
        weights = sorted(t.amp.norm_sq for t in s.terms)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        assert mean_time(s) == pytest.approx(0.0, abs=1e-12)

    def test_transmission_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            pulse = PulseSpec(1.0, float(rng.uniform(0, 20)))
            state = initial_state(pulse, random_state(rng))
            state = apply_pdl(state, random_axis(rng), rng.uniform(0, 1.0))
            before = transmission(state)
            state = apply_pmd(state, random_axis(rng), rng.uniform(0, 4.0))
            assert transmission(state) == pytest.approx(before, rel=1e-12)

    def test_carrier_phase_applied_per_eigenmode(self):
        # intensity depends on omega0 through the relative carrier phase
        pulse = PulseSpec(1.0, 2.0)
        dgd = 1.0
        psi = jones_from_angles(math.pi / 2, 0)
        s = apply_pmd(initial_state(pulse, psi), AXIS_Z, dgd)
        by_delay = {round(t.delay, 12): t.amp for t in s.terms}
        late, early = by_delay[0.5], by_delay[-0.5]
        expected = np.exp(1j * pulse.omega0 * dgd / 2) / math.sqrt(2)
        assert late.h == pytest.approx(expected, abs=1e-15)
        assert early.v == pytest.approx(np.conj(expected), abs=1e-15)

    def test_rejects_negative_dgd(self):
        with pytest.raises(ValueError):
            apply_pmd(initial_state(PULSE, JONES_H), AXIS_Z, -0.1)


class TestApplyPdl:
    def test_mu_zero_identity(self):
        s0 = apply_pmd(initial_state(PULSE, jones_from_angles(1.0, 0.3)), AXIS_Z, 0.5)
        s1 = apply_pdl(s0, AXIS_X, 0.0)
        assert s1.terms == s0.terms

    def test_most_attenuated_eigenmode(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = random_axis(rng)
            mu = rng.uniform(0.1, 2.0)
            s = initial_state(PULSE, minus_eigenstate(n).normalized())
            assert transmission(apply_pdl(s, n, mu)) == pytest.approx(math.exp(-mu), rel=1e-12)

    def test_least_attenuated_eigenmode(self):
        n = random_axis(np.random.default_rng(23))
        mu = 1.3
        s = initial_state(PULSE, plus_eigenstate(n).normalized())
        assert transmission(apply_pdl(s, n, mu)) == pytest.approx(math.exp(mu), rel=1e-12)

    def test_preserves_delays_and_count(self):
        s0 = apply_pmd(initial_state(PULSE, jones_from_angles(1.0, 0.0)), AXIS_Z, 2.0)
        s1 = apply_pdl(s0, AXIS_X, 0.7)
        assert [t.delay for t in s1.terms] == [t.delay for t in s0.terms]


class TestProjectPure:
    def test_projects_componentwise(self):
        alpha, beta = 0.6, 0.8
        state = GaussianSumState(
            PULSE,
            (Term(0.5, JonesVector(alpha, 0.0)), Term(-0.5, JonesVector(0.0, beta))),
        )
        out = project_pure(state, JONES_H)
        assert out.terms[0].amp == JonesVector(alpha, 0.0)
        assert out.terms[1].amp == JonesVector(0.0, 0.0)

    def test_idempotent(self):
        phi = jones_from_angles(1.1, 0.4)
        s = apply_pmd(initial_state(PULSE, jones_from_angles(0.5, 1.0)), AXIS_Z, 1.0)
        once = project_pure(s, phi)
        twice = project_pure(once, phi)
        for a, b in zip(once.terms, twice.terms):
            assert abs(a.amp.h - b.amp.h) < 1e-15 and abs(a.amp.v - b.amp.v) < 1e-15

    def test_orthogonal_blocks_everything(self):
        s = initial_state(PULSE, JONES_H)
        out = project_pure(s, JONES_V)
        assert transmission(out) == 0.0
        with pytest.raises(NearZeroTransmissionError):
            mean_time(out)


class TestIntensity:
    def test_fresh_pulse_profile(self):
        s = initial_state(PULSE, JONES_H)
        peak = 1.0 / (PULSE.t_c * math.sqrt(2 * math.pi))
        assert intensity(s, 0.0) == pytest.approx(peak, rel=1e-12)
        assert intensity(s, 1.0) == pytest.approx(peak * math.exp(-0.5), rel=1e-12)

    def test_orthogonal_terms_add_without_cross_term(self):
        a, b = 0.6, 0.8
        state = GaussianSumState(
            PULSE, (Term(0.5, JonesVector(a, 0)), Term(-0.5, JonesVector(0, b)))
        )
        grid = np.linspace(-4, 4, 101)
        gauss = lambda t, d: math.exp(-((t - d) ** 2) / (2 * PULSE.t_c**2)) / (
            PULSE.t_c * math.sqrt(2 * math.pi)
        )
        expected = [a * a * gauss(t, 0.5) + b * b * gauss(t, -0.5) for t in grid]
        assert np.allclose(intensity(state, grid), expected, atol=1e-14)

    def test_nonnegative_on_dense_grid(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            spec = random_strong_network(rng)
            state = run_exact(spec).state
            grid = np.linspace(-12, 12, 2001)
            assert np.all(intensity(state, grid) >= 0.0)

    def test_profile_window(self):
        s = apply_pmd(initial_state(PULSE, jones_from_angles(1.0, 0)), AXIS_Z, 3.0)
        grid, values = intensity_profile(s, n_points=101, pad=5.0)
        assert len(grid) == 101 and len(values) == 101
        assert grid[0] == pytest.approx(-1.5 - 5.0)
        assert grid[-1] == pytest.approx(1.5 + 5.0)


class TestMeanTime:
    def test_single_term_at_delay(self):
        state = GaussianSumState(PULSE, (Term(0.7, JONES_H),))
        assert mean_time(state) == pytest.approx(0.7, abs=1e-15)

    def test_two_orthogonal_terms_probability_weighted(self):
        a, b = 0.6, 0.8
        dgd = 1.4
        state = GaussianSumState(
            PULSE,
            (Term(dgd / 2, JonesVector(a, 0)), Term(-dgd / 2, JonesVector(0, b))),
        )
        expected = (dgd / 2) * (a * a - b * b) / (a * a + b * b)
        assert mean_time(state) == pytest.approx(expected, rel=1e-12)

    def test_two_parallel_terms_interfere(self):
        # same polarization in both terms: the overlap term enters the norm
        a, b = 0.8, 0.55
        dgd = 1.2
        state = GaussianSumState(
            PULSE,
            (Term(dgd / 2, JonesVector(a, 0)), Term(-dgd / 2, JonesVector(b, 0))),
        )
        overlap = math.exp(-0.5 * (dgd / (2 * PULSE.t_c)) ** 2)
        expected = (dgd / 2) * (a * a - b * b) / (a * a + b * b + 2 * a * b * overlap)
        assert mean_time(state) == pytest.approx(expected, rel=1e-12)

    def test_raises_when_blocked(self):
        state = GaussianSumState(PULSE, (Term(0.0, JonesVector(1e-9, 0.0)),))
        with pytest.raises(NearZeroTransmissionError):
            mean_time(state)


class TestTransmission:
    def test_fresh_state(self):
        assert transmission(initial_state(PULSE, JONES_H)) == pytest.approx(1.0, abs=1e-15)

    def test_aligned_polarizer_keeps_everything(self):
        phi = jones_from_angles(0.8, 0.2)
        s = project_pure(initial_state(PULSE, phi), phi)
        assert transmission(s) == pytest.approx(1.0, abs=1e-12)

    def test_malus_law(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            psi, phi = random_state(rng), random_state(rng)
            s = project_pure(initial_state(PULSE, psi), phi)
            assert transmission(s) == pytest.approx(abs(phi.inner(psi)) ** 2, abs=1e-12)


class TestPrune:
    def test_merges_coincident_delays(self):
        state = GaussianSumState(
            PULSE, (Term(0.3, JonesVector(1, 0)), Term(0.3, JonesVector(0, 1)))
        )
        merged = prune(state)
        assert len(merged.terms) == 1
        assert merged.terms[0].amp == JonesVector(1, 1)

    def test_keeps_delays_far_below_tc_apart(self):
        # One z section: mean time (dgd/2) cos(theta) at any dgd/tc. Merging
        # its two terms as coincident would leave a pure shift of -dgd/2.
        spec = parse_network("pulse tc=1\ninput theta=0.5 phi=0\npmd axis=0,0,1 dgd=1e-100\n")
        result = run_exact(spec)
        assert len(result.state.terms) == 2
        assert result.mean_time == pytest.approx(0.5e-100 * math.cos(0.5), rel=1e-15)

    def test_tol_zero_preserves_observables(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            spec = random_strong_network(rng)
            state = run_exact(spec).state
            pruned = prune(state)
            assert mean_time(pruned) == pytest.approx(mean_time(state), rel=1e-13, abs=1e-13)
            assert transmission(pruned) == pytest.approx(transmission(state), rel=1e-13)


class TestOverlapLaw:
    def test_closed_form(self):
        for ratio in (0.1, 1.0, 2.0, 4.0):
            expected = math.exp(-0.5 * (ratio / 2.0) ** 2)
            assert abs(gaussian_overlap(ratio / 2, -ratio / 2, 1.0) - expected) <= 1e-12

    def test_against_quadrature(self):
        # independent check of the analytic envelope overlap
        from pmdpdl.pulse import _envelope

        for ratio in (0.1, 1.0, 2.0, 4.0):
            got = quad(
                lambda t: float(_envelope(t - ratio / 2, 1.0) * _envelope(t + ratio / 2, 1.0)),
                -30,
                30,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=400,
            )[0]
            assert abs(got - gaussian_overlap(ratio / 2, -ratio / 2, 1.0)) < 1e-12

    def test_overlap_from_propagated_state(self):
        for ratio in (0.1, 1.0, 2.0, 4.0):
            s = apply_pmd(initial_state(PULSE, jones_from_angles(math.pi / 2, 0)), AXIS_Z, ratio)
            d = sorted(t.delay for t in s.terms)
            got = gaussian_overlap(d[0], d[1], PULSE.t_c)
            assert abs(got - math.exp(-0.5 * (ratio / 2) ** 2)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeScales:
    """Delays far beyond t_c, or t_c near the float limits, give the strong
    or weak limit with no numpy warning (warnings fail these tests)."""

    @staticmethod
    def run(t_c: str, dgd: str):
        text = f"pulse tc={t_c}\ninput theta=0.3 phi=0\npmd axis=0,0,1 dgd={dgd}\n"
        return run_exact(parse_network(text))

    def test_overlap_limits(self):
        assert gaussian_overlap(1e300, -1e300, 1.0) == 0.0
        assert gaussian_overlap(0.5, -0.5, 1e-300) == 0.0
        assert gaussian_overlap(0.5, -0.5, 5e-324) == 0.0
        assert gaussian_overlap(0.5, 0.5, 1e-300) == 1.0
        assert gaussian_overlap(1e200, -1e200, 1e200) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_strong_limit_at_tiny_coherence_time(self):
        # dgd/tc ~ 1e300: the two eigen-pulses never overlap, nothing is
        # lost, and the mean time is the outcome average 0.5 cos(theta).
        for t_c in ("1e-300", "5e-324"):
            result = self.run(t_c, "1")
            assert result.transmission == pytest.approx(1.0, abs=1e-15)
            assert result.mean_time == pytest.approx(0.5 * math.cos(0.3), rel=1e-15)

    def test_strong_limit_at_huge_dgd(self):
        result = self.run("1", "1e300")
        assert result.transmission == pytest.approx(1.0, abs=1e-15)
        assert result.mean_time == pytest.approx(0.5e300 * math.cos(0.3), rel=1e-15)

    def test_scale_invariance_at_huge_scales(self):
        unit = self.run("1", "0.7")
        scaled = self.run("1e200", "0.7e200")
        assert scaled.transmission == pytest.approx(unit.transmission, rel=1e-14)
        assert scaled.mean_time == pytest.approx(unit.mean_time * 1e200, rel=1e-14)


class TestQuadratureOracle:
    def test_fifty_random_networks(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            spec = random_strong_network(rng)
            state = run_exact(spec).state
            total, first = quad_moments(state)
            assert transmission(state) == pytest.approx(total, rel=1e-8)
            assert mean_time(state) == pytest.approx(first / total, rel=1e-8, abs=1e-8)


class TestStructuralInvariants:
    def test_same_axis_pmds_compose(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = random_axis(rng)
            d1, d2 = rng.uniform(0, 2), rng.uniform(0, 2)
            pulse = PulseSpec(1.0, float(rng.uniform(0, 5)))
            psi = random_state(rng)
            split = apply_pmd(apply_pmd(initial_state(pulse, psi), n, d1), n, d2)
            joined = apply_pmd(initial_state(pulse, psi), n, d1 + d2)
            split = prune(split)
            assert mean_time(split) == pytest.approx(mean_time(joined), rel=1e-12, abs=1e-12)
            assert transmission(split) == pytest.approx(transmission(joined), rel=1e-12)

    def test_global_phase_gauge(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            psi = random_state(rng)
            chi = rng.uniform(0, 2 * math.pi)
            rotated = psi.scaled(complex(math.cos(chi), math.sin(chi)))
            pulse = PulseSpec(1.0, 3.0)
            for start in (psi, rotated):
                state = initial_state(pulse, start)
                state = apply_pmd(state, random_axis(np.random.default_rng(1)), 1.3)
                state = apply_pdl(state, AXIS_X, 0.6)
                if start is psi:
                    ref = (mean_time(state), transmission(state))
                else:
                    assert mean_time(state) == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
                    assert transmission(state) == pytest.approx(ref[1], rel=1e-12)

    def test_pmd_only_mean_time_bound(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            pulse = PulseSpec(1.0, float(rng.uniform(0, 10)))
            state = initial_state(pulse, random_state(rng))
            budget = 0.0
            for _ in range(int(rng.integers(1, 5))):
                dgd = float(rng.uniform(0, 2))
                budget += dgd
                state = apply_pmd(state, random_axis(rng), dgd)
            assert abs(mean_time(state)) <= budget / 2 + 1e-12
