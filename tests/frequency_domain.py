"""Independent frequency-domain evaluation of a chain, for the tests.

Numpy only: nothing here imports pmdpdl. A chain is a list of plain tuples

    ("pmd", (x, y, z), dgd)   ("pdl", (x, y, z), mu)   ("polarizer", theta, phi)

and the input is a unit Jones pair (h, v). At baseband frequency w the chain
acts as M(w) = U_n(w) ... U_1(w). A delay section is
U(w) = exp(i (omega0 + w) (dgd/2) sigma_n), so dU/dw = i (dgd/2) sigma_n U;
a filter is exp(mu sigma_n / 2) and a polarizer the projector on
cos(theta/2)|H> + sin(theta/2) e^{i phi}|V>, neither depending on w. The
pulse's power spectrum is exp(-2 tc^2 w^2), so with v(w) = M(w) psi

    transmission = <|v|^2>,    mean time = <Re v^H (-i dv/dw)> / <|v|^2>,

where <.> is the spectral average, taken by Gauss-Hermite quadrature. The
integrand is a Gaussian times a trigonometric polynomial whose frequencies
lie within the total dgd, so the node count grows with (total dgd / tc)^2.
"""
import cmath
import math

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
EYE = np.eye(2, dtype=complex)


def _sigma(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    return np.tensordot(n / np.linalg.norm(n), PAULI, axes=1)


def jones(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * cmath.exp(1j * phi)])


def node_count(total_dgd: float, t_c: float) -> int:
    """Gauss-Hermite nodes that converge the average to rounding error.

    numpy's hermgauss weights overflow between 340 and 374 nodes, so keep
    total dgd / tc below about 24.
    """
    return 48 + math.ceil(0.5 * (total_dgd / t_c) ** 2)


def evaluate(t_c: float, omega0: float, psi, elements) -> tuple[float, float]:
    """(mean time, transmission) of the unit input psi through the chain."""
    total_dgd = sum(el[2] for el in elements if el[0] == "pmd")
    x, w = np.polynomial.hermite.hermgauss(node_count(total_dgd, t_c))
    omegas = x / (math.sqrt(2.0) * t_c)
    # v and dv/dw at every node, one row per node.
    v = np.tile(np.asarray(psi, dtype=complex), (len(omegas), 1))
    dv = np.zeros_like(v)
    for element in elements:
        if element[0] == "pmd":
            s = _sigma(element[1])
            angle = (omega0 + omegas) * (0.5 * element[2])
            u = np.cos(angle)[:, None, None] * EYE + 1j * np.sin(angle)[:, None, None] * s
            v = np.einsum("qij,qj->qi", u, v)
            dv = np.einsum("qij,qj->qi", u, dv) + 0.5j * element[2] * v @ s.T
            continue
        if element[0] == "pdl":
            mu = element[2]
            op = math.cosh(mu / 2.0) * EYE + math.sinh(mu / 2.0) * _sigma(element[1])
        else:
            state = jones(element[1], element[2])
            op = np.outer(state, state.conj())
        v = v @ op.T
        dv = dv @ op.T
    weights = w / w.sum()
    transmission = float(weights @ np.einsum("qi,qi->q", v.conj(), v).real)
    time = float(weights @ np.einsum("qi,qi->q", v.conj(), -1j * dv).real)
    return time / transmission, transmission


def network_text(t_c: float, omega0: float, psi, elements) -> str:
    """The chain in the network file format, input in amplitude form."""
    h, v = (complex(c) for c in psi)
    lines = [
        f"pulse tc={t_c!r} omega0={omega0!r}",
        f"input h={h.real!r},{h.imag!r} v={v.real!r},{v.imag!r}",
    ]
    for kind, *params in elements:
        if kind == "polarizer":
            lines.append(f"polarizer theta={params[0]!r} phi={params[1]!r}")
        else:
            axis = ",".join(repr(float(c)) for c in params[0])
            field = "dgd" if kind == "pmd" else "mu"
            lines.append(f"{kind} axis={axis} {field}={params[1]!r}")
    return "\n".join(lines) + "\n"


def parse_text(text: str):
    """(t_c, omega0, psi, elements) from network text that gives omega0, the
    input and polarizers as theta=,phi= and every axis as axis=x,y,z."""
    elements = []
    for line in text.splitlines():
        directive, *parts = line.split()
        values = dict(part.split("=") for part in parts)
        num = {key: [float(x) for x in value.split(",")] for key, value in values.items()}
        if directive == "pulse":
            t_c, omega0 = num["tc"][0], num["omega0"][0]
        elif directive == "input":
            psi = jones(num["theta"][0], num["phi"][0])
        elif directive == "polarizer":
            elements.append(("polarizer", num["theta"][0], num["phi"][0]))
        else:
            magnitude = num["dgd" if directive == "pmd" else "mu"][0]
            elements.append((directive, tuple(num["axis"]), magnitude))
    return t_c, omega0, psi, elements
