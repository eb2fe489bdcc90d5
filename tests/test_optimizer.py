import math

import numpy as np
import pytest

from pmdpdl import (
    AXIS_X,
    AXIS_Z,
    JONES_H,
    JONES_V,
    Axis3,
    NetworkSpec,
    Pdl,
    Pmd,
    Polarizer,
    PulseSpec,
    TooManyElementsError,
    extremal_polarization,
    extremal_sphere,
    grouped_vs_interleaved,
    optimize_arrangement,
    sweep_polarization,
    sweep_sphere,
)

PULSE = PulseSpec(1.0)


def chain_spec(*elements) -> NetworkSpec:
    return NetworkSpec(PULSE, JONES_H, tuple(elements))


class TestSweepPolarization:
    def test_single_pmd_is_cosine(self):
        dgd = 0.8
        phis, t_weak, _ = sweep_polarization(chain_spec(Pmd(AXIS_Z, dgd)), grid_size=36)
        for phi, t in zip(phis, t_weak):
            assert t == pytest.approx((dgd / 2) * math.cos(phi), abs=1e-12)
        best = np.nanargmax(t_weak)
        assert phis[best] == 0.0
        assert t_weak[best] == pytest.approx(dgd / 2, abs=1e-12)

    def test_rows_cover_grid_in_order(self):
        phis, _, _ = sweep_polarization(chain_spec(Pmd(AXIS_Z, 1.0)), grid_size=100)
        assert len(phis) == 100
        assert all(b > a for a, b in zip(phis, phis[1:]))
        assert phis[0] == 0.0 and phis[-1] < 2 * math.pi

    def test_delay_plus_transverse_filter_maximum(self):
        dgd, mu = 1.0, 1.0
        _, t_weak, _ = sweep_polarization(chain_spec(Pmd(AXIS_Z, dgd), Pdl(AXIS_X, mu)), 721)
        assert np.nanmax(t_weak) == pytest.approx((dgd / 2) * math.cosh(mu), abs=1e-4)

    def test_blocked_rows_flagged_not_fatal(self):
        _, t_weak, t_exact = sweep_polarization(chain_spec(Polarizer(JONES_V)), grid_size=8)
        blocked = np.isnan(t_weak)
        assert blocked[0]  # phi = 0 is pure H, fully crossed
        assert not blocked.all()
        assert t_exact is None

    def test_include_exact_column(self):
        _, t_weak, t_exact = sweep_polarization(
            chain_spec(Pmd(AXIS_Z, 0.01), Pdl(AXIS_X, 1.0)), 16, include_exact=True
        )
        assert t_exact is not None and len(t_exact) == len(t_weak) == 16
        for weak, exact in zip(t_weak, t_exact):
            assert exact == pytest.approx(weak, abs=5 * 0.01 * 0.01**2)

    @pytest.mark.parametrize("grid_size", [1, 0, -3])
    def test_grid_needs_two_points(self, grid_size):
        spec = chain_spec(Pmd(AXIS_Z, 1.0))
        message = f"grid_size must be >= 2, got {grid_size}"
        with pytest.raises(ValueError, match=message):
            sweep_polarization(spec, grid_size)
        with pytest.raises(ValueError, match=message):
            extremal_polarization(spec, grid_size)
        with pytest.raises(ValueError, match=message):
            optimize_arrangement(spec.elements, grid_size=grid_size)


class TestExtremalPolarization:
    def test_refinement_reaches_closed_form(self):
        dgd, mu = 1.0, 1.0
        spec = chain_spec(Pmd(AXIS_Z, dgd), Pdl(AXIS_X, mu))
        _, best = extremal_polarization(spec, 181, "max", "weak")
        assert best == pytest.approx((dgd / 2) * math.cosh(mu), abs=1e-6)

    def test_grid_doubling_shrinks_extremum_error(self):
        spec = chain_spec(Pmd(AXIS_Z, 1.0), Pdl(AXIS_X, 1.0))
        closed = 0.5 * math.cosh(1.0)
        errors = {
            g: closed - np.nanmax(sweep_polarization(spec, g)[1])
            for g in (90, 180, 360, 720)
        }
        assert errors[180] <= errors[90] / 2
        assert errors[720] <= errors[360] / 2
        assert errors[90] > 0

    def test_min_objective(self):
        spec = chain_spec(Pmd(AXIS_Z, 1.0), Pdl(AXIS_X, 1.0))
        _, worst = extremal_polarization(spec, 181, "min", "weak")
        assert worst == pytest.approx(-0.5 * math.cosh(1.0), abs=1e-6)

    def test_exact_engine_agrees_when_weak(self):
        spec = chain_spec(Pmd(AXIS_Z, 1e-3), Pdl(AXIS_X, 1.0))
        _, weak = extremal_polarization(spec, 121, "max", "weak")
        _, exact = extremal_polarization(spec, 121, "max", "exact")
        assert exact == pytest.approx(weak, rel=1e-5)


class TestSweepSphere:
    def test_grid_shape(self):
        thetas, phis, values = sweep_sphere(chain_spec(Pmd(AXIS_Z, 1.0)), n_theta=7, n_phi=12)
        assert values.shape == (7, 12)
        assert (thetas[0], phis[0]) == (0.0, 0.0)
        assert thetas[-1] == math.pi and phis[-1] < 2 * math.pi

    def test_weak_and_exact_grids_agree(self):
        spec = chain_spec(Pmd(AXIS_Z, 1e-3), Pdl(AXIS_X, 0.8))
        weak_thetas, weak_phis, weak = sweep_sphere(spec, 5, 8, engine="weak")
        exact_thetas, exact_phis, exact = sweep_sphere(spec, 5, 8, engine="exact")
        assert np.array_equal(weak_thetas, exact_thetas)
        assert np.array_equal(weak_phis, exact_phis)
        for v1, v2 in zip(weak.ravel(), exact.ravel()):
            assert v2 == pytest.approx(v1, abs=1e-8)

    @pytest.mark.parametrize("n_theta, n_phi, name", [(1, 8, "n_theta"), (5, 0, "n_phi")])
    def test_grid_needs_two_points(self, n_theta, n_phi, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 2"):
            sweep_sphere(chain_spec(Pmd(AXIS_Z, 1.0)), n_theta, n_phi)


class TestExtremalSphere:
    def test_transverse_filter_extrema(self):
        spec = chain_spec(Pmd(AXIS_Z, 1e-3), Pdl(AXIS_X, 1.0))
        _, _, best = extremal_sphere(spec, 61, 121, "max", "weak")
        assert best / 5e-4 == pytest.approx(math.cosh(1.0), rel=1e-9)
        _, _, worst = extremal_sphere(spec, 61, 121, "min", "weak")
        assert worst / 5e-4 == pytest.approx(-math.cosh(1.0), rel=1e-9)


class TestOptimizeArrangement:
    def test_grouping_wins(self):
        elements = (Pmd(AXIS_Z, 1.0),) * 3 + (Pdl(AXIS_X, 1.0),) * 2
        result = optimize_arrangement(elements, "max", grid_size=181, keep_table=True)
        assert result.best_order == (0, 1, 2, 3, 4)
        assert len(result.per_order_table) == 10  # distinct orderings of PPPFF
        ordered = [elements[i] for i in result.best_order]
        assert all(isinstance(el, Pmd) for el in ordered[:3])
        assert all(isinstance(el, Pdl) for el in ordered[3:])

    def test_best_extremum_reproducible_from_best_order(self):
        elements = (Pmd(AXIS_Z, 1.0), Pdl(AXIS_X, 0.5), Pmd(Axis3(0, 1, 1), 0.4))
        result = optimize_arrangement(elements, "max", grid_size=91)
        ordered = tuple(elements[i] for i in result.best_order)
        again = optimize_arrangement(ordered, "max", grid_size=91)
        assert again.best_extremum == pytest.approx(result.best_extremum, abs=1e-12)

    def test_single_element(self):
        result = optimize_arrangement((Pmd(AXIS_Z, 1.0),), "max", grid_size=61)
        assert result.best_order == (0,)
        assert result.best_extremum == pytest.approx(0.5, abs=1e-12)

    def test_parallel_delays_all_tie(self):
        elements = (Pmd(AXIS_Z, 1.0), Pmd(AXIS_Z, 0.5), Pmd(AXIS_Z, 0.2))
        result = optimize_arrangement(elements, "max", grid_size=181, keep_table=True)
        values = [v for _, v in result.per_order_table]
        assert max(values) - min(values) <= 1e-12
        assert result.best_order == (0, 1, 2)  # lexicographic tie-break
        assert result.best_extremum == pytest.approx(1.7 / 2, abs=1e-12)

    def test_no_filters_means_order_free(self):
        elements = (Pmd(AXIS_Z, 1.0), Pmd(Axis3(1, 0, 1), 0.7), Pmd(AXIS_X, 0.3))
        result = optimize_arrangement(elements, "max", grid_size=121, keep_table=True)
        values = [v for _, v in result.per_order_table]
        assert max(values) - min(values) <= 1e-12

    def test_engine_consistency_on_weak_chains(self):
        elements = (Pmd(AXIS_Z, 0.005),) * 3 + (Pdl(AXIS_X, 1.0),) * 2
        by_weak = optimize_arrangement(elements, "max", grid_size=61, engine="weak")
        by_exact = optimize_arrangement(
            elements, "max", grid_size=61, engine="exact", pulse=PULSE
        )
        assert by_weak.best_order == by_exact.best_order

    def test_deterministic(self):
        elements = (Pmd(AXIS_Z, 1.0), Pdl(AXIS_X, 1.0), Pmd(Axis3(0, 1, 0), 0.5))
        a = optimize_arrangement(elements, "min", grid_size=121, keep_table=True)
        b = optimize_arrangement(elements, "min", grid_size=121, keep_table=True)
        assert a == b

    def test_element_cap(self):
        with pytest.raises(TooManyElementsError):
            optimize_arrangement((Pmd(AXIS_Z, 1.0),) * 9)

    def test_grouped_closed_form(self):
        # aligned delays before aligned transverse filters: (sum dgd/2) cosh(sum mu)
        elements = (Pmd(AXIS_Z, 0.6), Pmd(AXIS_Z, 0.9), Pdl(AXIS_X, 0.5), Pdl(AXIS_X, 0.8))
        result = optimize_arrangement(elements, "max", grid_size=721)
        expected = (1.5 / 2) * math.cosh(1.3)
        assert result.best_extremum == pytest.approx(expected, abs=2e-4)


class TestGroupedVsInterleaved:
    def test_grouped_value(self):
        result = grouped_vs_interleaved(1.0, 1.0)
        assert result.t_grouped == pytest.approx(1.5 * math.cosh(2.0), abs=1e-6)

    def test_interleaved_value_telescopes(self):
        # each transverse filter advances the optimal input by one rapidity
        # step, so the three shift terms peak simultaneously:
        # t = (cosh(2 mu) + cosh(mu) + 1) * dgd / 2
        for dgd, mu in ((1.0, 1.0), (0.4, 0.7)):
            result = grouped_vs_interleaved(dgd, mu)
            expected = 0.5 * dgd * (math.cosh(2 * mu) + math.cosh(mu) + 1.0)
            assert result.t_interleaved == pytest.approx(expected, abs=1e-6)

    def test_interleaved_brute_force_oracle(self):
        # written-out quotients maximized over a dense state grid
        mu, dgd = 1.0, 1.0
        f = math.cosh(mu / 2) * np.eye(2) + math.sinh(mu / 2) * np.array([[0, 1], [1, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        m_den = f @ f @ f @ f
        forms = (m_den @ sz, f @ f @ f @ sz @ f, f @ f @ sz @ f @ f)
        best = -1e18
        for phi in np.linspace(0, 2 * math.pi, 20001):
            a = np.array([math.cos(phi / 2), math.sin(phi / 2)], dtype=complex)
            den = np.vdot(a, m_den @ a).real
            best = max(best, 0.5 * dgd * sum(np.vdot(a, m @ a).real for m in forms) / den)
        result = grouped_vs_interleaved(dgd, mu)
        assert result.t_interleaved == pytest.approx(best, abs=1e-6)

    def test_grouping_always_at_least_as_good(self):
        for mu in (0.2, 0.7, 1.0, 1.5):
            result = grouped_vs_interleaved(1.0, mu)
            assert result.t_grouped >= result.t_interleaved - 1e-9

    def test_no_filter_means_no_ordering_effect(self):
        result = grouped_vs_interleaved(1.0, 0.0)
        assert result.ratio == pytest.approx(1.0, abs=1e-9)
        assert result.t_grouped == pytest.approx(1.5, abs=1e-9)

    def test_ratio_closed_form(self):
        result = grouped_vs_interleaved(1.0, 1.0)
        expected = 3 * math.cosh(2.0) / (math.cosh(2.0) + math.cosh(1.0) + 1.0)
        assert result.ratio == pytest.approx(expected, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            grouped_vs_interleaved(0.0, 1.0)
        with pytest.raises(ValueError):
            grouped_vs_interleaved(1.0, -0.5)
