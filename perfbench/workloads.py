"""The benchmark's four workloads: seeded inputs, the op, and its checker.

Every input is generated here as plain data and rendered as network-file
text; the program only ever sees that text (parsed with parse_network).
The same data feeds the independent reference in reference.py, so no check
compares the program against its own stored outputs.

Each workload keeps all of its ops in one cost class (fixed chain length,
fixed grid, fixed bag size) so that its latency percentiles describe one
kind of op rather than a boundary between two.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

# Relative tolerances, fixed before any run. The Gaussian-sum engine and the
# quadrature reference agree to about 1e-16 of the chain's total delay.
TIME_RTOL = 1e-9
TRANSMISSION_RTOL = 1e-9
CSV_TOL = 1e-12

SCAN_GRID = 181
OPTIMIZE_GRID = 721
# Smaller than the CLI's default 181 x 361 sphere so that a pass of 100 ops
# fits several times into one run; formatting still dominates the op.
SPHERE_THETA = 91
SPHERE_PHI = 181
# A chain the reference says transmits less than this is regenerated, so no
# op is expected to raise NearZeroTransmissionError.
MIN_TRANSMISSION = 1e-3


@dataclass(frozen=True)
class Net:
    """One generated network: pulse, input polarization and elements.

    Elements are ("pmd", axis, dgd), ("pdl", axis, mu) or
    ("polarizer", theta, phi), with axis a 3-tuple.
    """

    t_c: float
    omega0: float
    input: tuple[float, float]
    elements: tuple

    @property
    def total_dgd(self) -> float:
        return sum(el[2] for el in self.elements if el[0] == "pmd")

    def text(self) -> str:
        lines = [
            f"pulse tc={self.t_c!r} omega0={self.omega0!r}",
            f"input theta={self.input[0]!r} phi={self.input[1]!r}",
        ]
        for el in self.elements:
            if el[0] == "polarizer":
                lines.append(f"polarizer theta={el[1]!r} phi={el[2]!r}")
            else:
                x, y, z = el[1]
                field = "dgd" if el[0] == "pmd" else "mu"
                lines.append(f"{el[0]} axis={x!r},{y!r},{z!r} {field}={el[2]!r}")
        return "\n".join(lines) + "\n"


@dataclass
class Item:
    """One input of a workload, ready to run: the generated data, its text,
    the program's parsed spec, an optional file path, and the reference."""

    net: Net
    text: str
    spec: Any = None
    path: str | None = None
    ref: Any = None


@dataclass(frozen=True)
class Outcome:
    """What one op produced: exit code (0 when a library call returned),
    the raw result or captured stdout, and the error text if any."""

    code: int
    value: Any
    error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int            # distinct inputs per seed, used round-robin
    trace_ops: int       # ops in one traced pass
    generate: Callable[[random.Random], Net]
    reference: Callable[[Net], Any]
    op: Callable[[Item], Outcome]
    check: Callable[[Any, Outcome], str | None]  # None if correct, else why not


def _axis(rng: random.Random) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def _angles(rng: random.Random) -> tuple[float, float]:
    return (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _call(fn, *args, **kwargs) -> Outcome:
    """Run one library op; every input here is generated to succeed, so any
    exception is a failed op, recorded rather than allowed to stop the run."""
    try:
        return Outcome(0, fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return Outcome(1, None, f"{type(exc).__name__}: {exc}")


# --- exact_chains -----------------------------------------------------------

def gen_exact_chain(rng: random.Random) -> Net:
    """9 random-axis delay sections (dgd/tc 0.1-2), PDL after about half of
    them, at most one polarizer, random carrier offset."""
    while True:
        t_c = rng.uniform(0.5, 2.0)
        polarizer_after = rng.randrange(1, 8) if rng.random() < 0.3 else None
        elements = []
        for k in range(9):
            elements.append(("pmd", _axis(rng), rng.uniform(0.1, 2.0) * t_c))
            if k == polarizer_after:
                elements.append(("polarizer", *_angles(rng)))
            elif k < 8 and rng.random() < 0.5:
                elements.append(("pdl", _axis(rng), rng.uniform(0.05, 0.5)))
        net = Net(t_c, rng.uniform(-3.0, 3.0) / t_c, _angles(rng), tuple(elements))
        if ref_exact_chain(net)["transmission"] >= MIN_TRANSMISSION:
            return net


def ref_exact_chain(net: Net) -> dict:
    forms = ref.exact_forms(net.elements, net.t_c, net.omega0)
    mean, trans = ref.evaluate(forms, ref.jones(*net.input))
    return {"mean_time": float(mean[0]), "transmission": float(trans[0]), "scale": net.total_dgd}


def op_exact_chain(item: Item) -> Outcome:
    from pmdpdl import network

    return _call(network.run_exact, item.spec)


def check_exact_chain(expected: dict, outcome: Outcome) -> str | None:
    if outcome.code != 0:
        return f"code {outcome.code}: {outcome.error}"
    result = outcome.value
    t_err = abs(result.mean_time - expected["mean_time"])
    if not t_err <= TIME_RTOL * expected["scale"]:
        return f"mean_time {result.mean_time!r} differs from reference by {t_err:.3e}"
    tr_err = abs(result.transmission - expected["transmission"])
    if not tr_err <= TRANSMISSION_RTOL * expected["transmission"]:
        return f"transmission {result.transmission!r} differs from reference by {tr_err:.3e}"
    return None


# --- exact_scan -------------------------------------------------------------

def gen_scan_chain(rng: random.Random) -> Net:
    """delay, filter, delay, filter, delay: dgd/tc 0.1-2, mu 0.1-1."""
    t_c = rng.uniform(0.5, 2.0)
    elements = []
    for k in range(3):
        elements.append(("pmd", _axis(rng), rng.uniform(0.1, 2.0) * t_c))
        if k < 2:
            elements.append(("pdl", _axis(rng), rng.uniform(0.1, 1.0)))
    return Net(t_c, rng.uniform(-3.0, 3.0) / t_c, _angles(rng), tuple(elements))


def _maximum_facts(forms, grid: int) -> tuple[float, float]:
    """(grid maximum, analytic maximum) over linear polarizations."""
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    values, _ = ref.evaluate(forms, ref.linear_states(phis))
    return float(values.max()), ref.linear_maximum(forms)


def ref_scan_chain(net: Net) -> dict:
    forms = ref.exact_forms(net.elements, net.t_c, net.omega0)
    grid_value, bound = _maximum_facts(forms, SCAN_GRID)
    return {"forms": forms, "grid": grid_value, "bound": bound, "scale": net.total_dgd}


def op_scan_chain(item: Item) -> Outcome:
    from pmdpdl import optimizer

    return _call(
        optimizer.extremal_polarization,
        item.spec, grid_size=SCAN_GRID, objective="max", engine="exact",
    )


def _check_extremum(value: float, grid_value: float, bound: float, tol: float) -> str | None:
    """One-sided check of a maximum: no worse than the grid maximum and no
    better than the analytic maximum, so a finer search still passes."""
    if not value >= grid_value - tol:
        return f"extremum {value!r} is below the grid maximum {grid_value!r}"
    if not value <= bound + tol:
        return f"extremum {value!r} exceeds the analytic maximum {bound!r}"
    return None


def check_scan_chain(expected: dict, outcome: Outcome) -> str | None:
    if outcome.code != 0:
        return f"code {outcome.code}: {outcome.error}"
    phi, value = outcome.value
    tol = TIME_RTOL * expected["scale"]
    at_phi, _ = ref.evaluate(expected["forms"], ref.linear_states([phi]))
    if not abs(value - at_phi[0]) <= tol:
        return f"value {value!r} at phi={phi!r} re-evaluates to {at_phi[0]!r}"
    return _check_extremum(value, expected["grid"], expected["bound"], tol)


# --- weak_optimize ----------------------------------------------------------

def gen_bag(rng: random.Random) -> Net:
    """3 delays (dgd/tc 0.02-0.3) and 2 filters (mu 0.2-1.5), distinct random
    axes, shuffled."""
    t_c = rng.uniform(0.5, 2.0)
    elements = [("pmd", _axis(rng), rng.uniform(0.02, 0.3) * t_c) for _ in range(3)]
    elements += [("pdl", _axis(rng), rng.uniform(0.2, 1.5)) for _ in range(2)]
    rng.shuffle(elements)
    return Net(t_c, rng.uniform(-3.0, 3.0) / t_c, _angles(rng), tuple(elements))


def ref_bag(net: Net) -> dict:
    per_order = {}
    for perm in itertools.permutations(range(len(net.elements))):
        forms = ref.weak_forms([net.elements[i] for i in perm], net.omega0)
        per_order[perm] = _maximum_facts(forms, OPTIMIZE_GRID)
    best_grid = max(grid_value for grid_value, _ in per_order.values())
    return {"per_order": per_order, "best_grid": best_grid, "scale": net.total_dgd}


def op_bag(item: Item) -> Outcome:
    from pmdpdl import optimizer

    spec = item.spec
    return _call(
        optimizer.optimize_arrangement,
        spec.elements, objective="max", grid_size=OPTIMIZE_GRID, engine="weak",
        pulse=spec.pulse,
    )


def check_bag(expected: dict, outcome: Outcome) -> str | None:
    """The winning order's value must lie between that order's grid maximum
    and its analytic maximum, and be no worse than the best grid maximum of
    any order."""
    if outcome.code != 0:
        return f"code {outcome.code}: {outcome.error}"
    order = tuple(outcome.value.best_order)
    value = outcome.value.best_extremum
    if order not in expected["per_order"]:
        return f"best_order {order!r} is not an ordering of the bag"
    tol = TIME_RTOL * expected["scale"]
    grid_value, bound = expected["per_order"][order]
    problem = _check_extremum(value, grid_value, bound, tol)
    if problem:
        return f"order {order!r}: {problem}"
    if not value >= expected["best_grid"] - tol:
        return f"best_extremum {value!r} is below the best grid maximum {expected['best_grid']!r}"
    return None


# --- cli_sphere -------------------------------------------------------------

SPHERE_HEADER = "theta,phi,t_weak"


def ref_sphere(net: Net) -> np.ndarray:
    """Expected (theta, phi, t_weak) rows of `sweep --sphere`, shape (n, 3)."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, SPHERE_THETA),
        np.linspace(0.0, 2.0 * math.pi, SPHERE_PHI, endpoint=False),
        indexing="ij",
    )
    theta, phi = theta.ravel(), phi.ravel()
    states = np.stack([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)], axis=1)
    times, _ = ref.evaluate(ref.weak_forms(net.elements, net.omega0), states)
    return np.stack([theta, phi, times], axis=1)


def op_sphere(item: Item) -> Outcome:
    from pmdpdl import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([
                "sweep", item.path, "--sphere",
                "--theta-grid", str(SPHERE_THETA), "--grid", str(SPHERE_PHI),
            ])
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return Outcome(1, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue() or None)


def parse_sphere_csv(text: str) -> np.ndarray:
    """Rows of a `sweep --sphere` CSV as an (n, 3) float array; ValueError
    if the text is not that CSV."""
    header, _, body = text.partition("\n")
    if header != SPHERE_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    values = np.array(body.rstrip("\n").replace("\n", ",").split(","), dtype=float)
    if values.size % 3:
        raise ValueError("row with a missing column")
    return values.reshape(-1, 3)


def check_sphere(expected: np.ndarray, outcome: Outcome) -> str | None:
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.error}"
    try:
        rows = parse_sphere_csv(outcome.value)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if rows.shape != expected.shape:
        return f"{rows.shape[0]} rows, expected {expected.shape[0]}"
    scale = np.maximum(1.0, np.abs(expected))
    err = np.abs(rows - expected) / scale
    if not bool(np.all(err <= CSV_TOL)):
        worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)) // 3)
        return f"row {worst + 1} {rows[worst].tolist()} differs from {expected[worst].tolist()}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_chains",
            pool=16, trace_ops=16,
            generate=gen_exact_chain, reference=ref_exact_chain,
            op=op_exact_chain, check=check_exact_chain,
        ),
        Workload(
            "exact_scan",
            pool=16, trace_ops=8,
            generate=gen_scan_chain, reference=ref_scan_chain,
            op=op_scan_chain, check=check_scan_chain,
        ),
        Workload(
            "weak_optimize",
            pool=16, trace_ops=16,
            generate=gen_bag, reference=ref_bag,
            op=op_bag, check=check_bag,
        ),
        Workload(
            "cli_sphere",
            pool=8, trace_ops=4,
            generate=gen_bag, reference=ref_sphere,
            op=op_sphere, check=check_sphere,
        ),
    )
}


def generate_nets(workload: Workload, seed: int) -> list[Net]:
    """The workload's distinct inputs for one seed; same seed, same inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.generate(rng) for _ in range(workload.pool)]
