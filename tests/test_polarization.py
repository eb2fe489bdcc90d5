import math

import numpy as np
import pytest

from pmdpdl import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    JONES_H,
    Axis3,
    JonesVector,
    ZeroVectorError,
    axis_from_angles,
    db_from_mu,
    expectation,
    jones_angles,
    jones_from_angles,
    minus_eigenstate,
    mu_from_db,
    pauli_on_axis,
    pdl_operator,
    plus_eigenstate,
    pmd_phase_operator,
    projector,
)
from pmdpdl.polarization import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, apply_operator

from helpers import random_axis, random_state


class TestJonesFromAngles:
    def test_north_pole_is_h(self):
        j = jones_from_angles(0.0, 0.0)
        assert j.h == 1.0 and j.v == 0.0

    def test_south_pole_is_v_up_to_phase(self):
        for phi in (0.0, 1.3, -2.0):
            j = jones_from_angles(math.pi, phi)
            assert abs(j.h) < 1e-12
            assert abs(abs(j.v) - 1.0) < 1e-12

    def test_circular(self):
        j = jones_from_angles(math.pi / 2, math.pi / 2)
        assert abs(j.h - 1 / math.sqrt(2)) < 1e-15
        assert abs(j.v - 1j / math.sqrt(2)) < 1e-15

    def test_always_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            j = jones_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert abs(j.norm_sq - 1.0) <= 1e-12

    def test_angles_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = rng.uniform(0.01, math.pi - 0.01)
            phi = rng.uniform(0, 2 * math.pi)
            t2, p2 = jones_angles(jones_from_angles(theta, phi))
            assert abs(t2 - theta) < 1e-12
            assert abs((p2 - phi + math.pi) % (2 * math.pi) - math.pi) < 1e-12

    def test_phi_is_wrapped_into_zero_two_pi(self):
        # v lags h by 0.5 rad: the raw phase difference is -0.5, reported as 2 pi - 0.5
        state = JonesVector(1.0, complex(np.exp(-0.5j))).normalized()
        theta, phi = jones_angles(state)
        assert theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert phi == pytest.approx(2 * math.pi - 0.5, abs=1e-15)
        assert 0.0 <= phi < 2 * math.pi


class TestAxis3:
    def test_normalizes(self):
        a = Axis3(3.0, 0.0, 4.0)
        assert (a.x, a.y, a.z) == (0.6, 0.0, 0.8)

    def test_rejects_zero(self):
        with pytest.raises(ZeroVectorError):
            Axis3(0.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Axis3(math.inf, 0.0, 0.0)

    def test_extreme_magnitudes_normalize(self):
        for scale in (1e200, 1e300, 1e-200, 5e-324):
            a = Axis3(3.0 * scale, 0.0, 4.0 * scale)
            assert (a.x, a.y, a.z) == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)
        big = Axis3(1.5e308, 1.5e308, 0.0)
        assert (big.x, big.y, big.z) == pytest.approx((math.sqrt(0.5), math.sqrt(0.5), 0.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Axis3(math.nan, 1.0, 0.0)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_axis(rng)
            assert abs(a.x**2 + a.y**2 + a.z**2 - 1.0) <= 1e-9

    def test_angles_match_construction(self):
        a = axis_from_angles(1.1, 2.2)
        theta, phi = a.angles()
        assert abs(theta - 1.1) < 1e-12 and abs(phi - 2.2) < 1e-12


class TestPauliOnAxis:
    def test_z(self):
        assert np.array_equal(pauli_on_axis(AXIS_Z), [[1, 0], [0, -1]])

    def test_x(self):
        assert np.array_equal(pauli_on_axis(AXIS_X), [[0, 1], [1, 0]])

    def test_negated_z(self):
        assert np.array_equal(pauli_on_axis(Axis3(0, 0, -1)), -pauli_on_axis(AXIS_Z))

    def test_squares_to_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = pauli_on_axis(random_axis(rng))
            assert np.max(np.abs(s @ s - IDENTITY)) <= 1e-12

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = pauli_on_axis(random_axis(rng))
            assert np.max(np.abs(s - s.conj().T)) <= 1e-12
            assert abs(np.trace(s)) <= 1e-12


class TestEigenstates:
    def test_eigenvalue_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = random_axis(rng)
            sigma = pauli_on_axis(n)
            plus, minus = plus_eigenstate(n), minus_eigenstate(n)
            assert np.allclose((sigma @ plus.as_array()), plus.as_array(), atol=1e-12)
            assert np.allclose((sigma @ minus.as_array()), -minus.as_array(), atol=1e-12)
            assert abs(plus.inner(minus)) <= 1e-12

    def test_z_axis_exact(self):
        assert plus_eigenstate(AXIS_Z) == JonesVector(1.0, 0.0)
        m = minus_eigenstate(AXIS_Z)
        assert m.h == 0.0 and m.v == 1.0


class TestPdlOperator:
    def test_mu_zero_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            assert np.array_equal(pdl_operator(random_axis(rng), 0.0), IDENTITY)

    def test_z_axis_diagonal(self):
        mu = 0.7
        f = pdl_operator(AXIS_Z, mu)
        assert np.allclose(f, np.diag([math.exp(mu / 2), math.exp(-mu / 2)]), atol=1e-15)

    def test_extinction_ratio(self):
        # ratio of extreme-state transmissions is e^{2 mu}, i.e. 10 log10(e^{2 mu}) dB
        mu = 0.9
        w = np.linalg.eigvalsh(pdl_operator(AXIS_Y, mu))
        ratio = (w.max() / w.min()) ** 2
        assert abs(ratio - math.exp(2 * mu)) < 1e-12
        assert abs(10 * math.log10(ratio) - db_from_mu(mu)) < 1e-12

    def test_most_attenuated_is_minus_axis(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = random_axis(rng)
            mu = rng.uniform(0.1, 2.0)
            f = pdl_operator(n, mu)
            lo = apply_operator(f, minus_eigenstate(n))
            hi = apply_operator(f, plus_eigenstate(n))
            assert abs(lo.norm_sq - math.exp(-mu)) < 1e-12
            assert abs(hi.norm_sq - math.exp(mu)) < 1e-10

    def test_inverse_is_negated_axis(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = random_axis(rng)
            mu = rng.uniform(0.0, 2.5)
            prod = pdl_operator(n, mu) @ pdl_operator(n.negated(), mu)
            assert np.max(np.abs(prod - IDENTITY)) <= 1e-12

    def test_hermitian_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = pdl_operator(random_axis(rng), rng.uniform(0, 2))
            assert np.max(np.abs(f - f.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(f).min() > 0

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            pdl_operator(AXIS_X, -0.1)


class TestPmdPhaseOperator:
    def test_omega_zero_is_identity(self):
        assert np.array_equal(pmd_phase_operator(AXIS_X, 1.0, 0.0), IDENTITY)

    def test_quarter_turn_on_z(self):
        # omega0 * dgd / 2 = pi/2 gives i sigma_z
        u = pmd_phase_operator(AXIS_Z, 1.0, math.pi)
        assert np.allclose(u, 1j * PAULI_Z, atol=1e-12)

    def test_unitary_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = pmd_phase_operator(random_axis(rng), rng.uniform(0, 3), rng.uniform(0, 50))
            assert np.max(np.abs(u.conj().T @ u - IDENTITY)) <= 1e-12

    def test_rejects_negative_dgd(self):
        with pytest.raises(ValueError):
            pmd_phase_operator(AXIS_Z, -1.0, 1.0)


class TestMuFromDb:
    def test_zero(self):
        assert mu_from_db(0.0) == 0.0

    def test_one_neper_point(self):
        # the dB value whose filter has extinction e^2 maps back to mu = 1
        assert abs(mu_from_db(10 * math.log10(math.exp(2.0))) - 1.0) < 1e-12

    def test_three_db(self):
        assert abs(mu_from_db(3.0) - 3.0 * math.log(10) / 20.0) < 1e-15
        assert abs(mu_from_db(3.0) - 0.3453877639491069) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            db = rng.uniform(0, 30)
            assert abs(db_from_mu(mu_from_db(db)) - db) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mu_from_db(-1.0)


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(PAULI_Z, JONES_H) == 1.0

    def test_balanced(self):
        diag = jones_from_angles(math.pi / 2, 0.0)
        assert abs(expectation(PAULI_Z, diag)) < 1e-15

    def test_diagonal_state_on_x(self):
        assert abs(expectation(PAULI_X, jones_from_angles(math.pi / 2, 0.0)) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expectation(np.array([[0, 1], [0, 0]], dtype=complex), JONES_H)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            expectation(PAULI_Z, JonesVector(1.0, 1.0))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            psi = random_state(rng)
            chi = rng.uniform(0, 2 * math.pi)
            rotated = psi.scaled(complex(math.cos(chi), math.sin(chi)))
            for op in (PAULI_X, PAULI_Y, PAULI_Z, pauli_on_axis(random_axis(rng))):
                assert abs(expectation(op, psi) - expectation(op, rotated)) < 1e-12

    def test_range_for_pauli(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            val = expectation(pauli_on_axis(random_axis(rng)), random_state(rng))
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestProjector:
    def test_projector_squares(self):
        p = projector(jones_from_angles(1.0, 0.5))
        assert np.max(np.abs(p @ p - p)) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            projector(JonesVector(2.0, 0.0))
