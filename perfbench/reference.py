"""Independent reference values for the benchmark's correctness checks.

Numpy only; nothing here imports pmdpdl. A chain is evaluated in the
frequency domain: the output field is v(w) = M(w) psi with M the product of
the elements' 2x2 transfer matrices, a delay section being
exp(i (omega0 + w) (dgd/2) sigma_n). For a Gaussian pulse whose power
spectrum is exp(-2 tc^2 w^2), the transmission is the spectral average of
|v|^2 and the mean arrival time is the spectral average of
Re <v| -i d/dw |v> over the transmission. Both are quadratic forms in psi,
so a chain reduces to two 2x2 Hermitian matrices (A, B) with
mean time psi^H A psi / psi^H B psi. Gauss-Hermite quadrature over w gives
the exact-engine forms; the single node w = 0 gives the weak-engine forms.
"""
from __future__ import annotations

import math

import numpy as np

_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_EYE = np.eye(2, dtype=complex)


def unit_axis(axis) -> np.ndarray:
    vec = np.asarray(axis, dtype=float)
    return vec / math.sqrt(float(vec @ vec))


def sigma(axis) -> np.ndarray:
    """Pauli operator along an axis given as three components."""
    return np.einsum("i,ijk->jk", unit_axis(axis), _PAULI)


def jones(theta: float, phi: float) -> np.ndarray:
    """Poincare-sphere state cos(theta/2)|H> + sin(theta/2) e^{i phi}|V>."""
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])


def _element_matrices(element, omega0: float, omegas: np.ndarray):
    """Transfer matrix and its w-derivative at every node, shape (q, 2, 2)."""
    kind = element[0]
    q = len(omegas)
    if kind == "pmd":
        _, axis, dgd = element
        s = sigma(axis)
        half = 0.5 * dgd
        angle = (omega0 + omegas) * half
        op = np.cos(angle)[:, None, None] * _EYE + 1j * np.sin(angle)[:, None, None] * s
        return op, 1j * half * (s @ op)
    if kind == "pdl":
        _, axis, mu = element
        op = math.cosh(mu / 2.0) * _EYE + math.sinh(mu / 2.0) * sigma(axis)
    elif kind == "polarizer":
        _, theta, phi = element
        state = jones(theta, phi)
        op = np.outer(state, state.conj())
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    return np.broadcast_to(op, (q, 2, 2)), np.zeros((q, 2, 2), dtype=complex)


def chain_forms(elements, omega0: float, omegas, weights) -> tuple[np.ndarray, np.ndarray]:
    """(A, B): spectrally averaged time form and norm form of a chain."""
    omegas = np.asarray(omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m = np.broadcast_to(_EYE, (len(omegas), 2, 2)).copy()
    dm = np.zeros_like(m)
    for element in elements:
        op, dop = _element_matrices(element, omega0, omegas)
        dm = op @ dm + dop @ m
        m = op @ m
    w = (weights / weights.sum())[:, None, None]
    m_dag = np.conj(np.swapaxes(m, 1, 2))
    norm_form = (w * (m_dag @ m)).sum(axis=0)
    time_form = (w * (m_dag @ (-1j * dm))).sum(axis=0)
    time_form = 0.5 * (time_form + time_form.conj().T)
    norm_form = 0.5 * (norm_form + norm_form.conj().T)
    return time_form, norm_form


def quadrature_nodes(t_c: float, total_dgd: float) -> int:
    """Gauss-Hermite node count for a chain of the given total delay.

    The integrands are exp(-x^2) times trigonometric polynomials whose
    highest frequency, in the quadrature variable x = sqrt(2) t_c w, is
    k = total_dgd / (sqrt(2) t_c). Measured on exp(-x^2) cos(k x), about
    k^2 / 4 + 3 k nodes reach rounding level for k up to 20; this count
    doubles that margin.
    """
    k = total_dgd / (math.sqrt(2.0) * t_c)
    return int(32 + 0.5 * k * k + 4.0 * k)


def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights by the Golub-Welsch eigenproblem.

    Unlike numpy.polynomial.hermite.hermgauss, whose weights overflow past
    about 360 nodes, this stays finite at any size (far weights underflow
    to 0, which is their correct value at double precision).
    """
    off = np.sqrt(np.arange(1, nodes) / 2.0)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, math.sqrt(math.pi) * vecs[0] ** 2


def exact_forms(elements, t_c: float, omega0: float, nodes: int | None = None):
    """Forms of the exact (any-strength) engine by Gauss-Hermite quadrature."""
    if nodes is None:
        total = sum(el[2] for el in elements if el[0] == "pmd")
        nodes = quadrature_nodes(t_c, total)
    x, wx = gauss_hermite(nodes)
    return chain_forms(elements, omega0, x / (math.sqrt(2.0) * t_c), wx)


def weak_forms(elements, omega0: float):
    """Forms of the weak (first-order) engine: the single node w = 0."""
    return chain_forms(elements, omega0, [0.0], [1.0])


def evaluate(forms, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean_time, transmission) for states of shape (2,) or (n, 2)."""
    time_form, norm_form = forms
    s = np.atleast_2d(states)
    num = np.real(np.einsum("gi,ij,gj->g", s.conj(), time_form, s))
    den = np.real(np.einsum("gi,ij,gj->g", s.conj(), norm_form, s))
    return num / den, den


def linear_states(phis) -> np.ndarray:
    """Linear polarizations cos(phi/2)|H> + sin(phi/2)|V>, shape (n, 2)."""
    half = 0.5 * np.asarray(phis, dtype=float)
    return np.stack([np.cos(half), np.sin(half)], axis=1).astype(complex)


def linear_maximum(forms) -> float:
    """Maximum of the mean time over all linear polarizations.

    For a real state psi, psi^H A psi = psi^T Re(A) psi, so the maximum is
    the largest generalized eigenvalue of (Re A, Re B).
    """
    time_form, norm_form = forms
    return float(np.linalg.eigvals(np.linalg.solve(norm_form.real, time_form.real)).real.max())
