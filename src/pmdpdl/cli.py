"""Command-line front end.

Commands: simulate | weak | sweep | optimize | validate. Results go to
standard output (plain key=value lines, CSV, or JSON), diagnostics to
standard error. Exit codes are a stable contract: 0 success, 1 validation
bound violated, 2 network-file parse error, 3 physics error (no transmitted
light, degenerate post-selection, overflow in the chain), 4 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParseError,
    PmdPdlError,
    TooManyElementsError,
)
from .network import (
    NetworkSpec,
    max_weakness_ratio,
    parse_network,
    run_exact,
    run_weak,
    with_scaled_dgd,
)
from .optimizer import (
    DEFAULT_GRID,
    SPHERE_PHI_GRID,
    SPHERE_THETA_GRID,
    optimize_arrangement,
    sweep_polarization,
    sweep_sphere,
)
from .pulse import intensity_profile

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_USAGE = 4

WEAKNESS_WARN_RATIO = 0.1


@dataclass(frozen=True)
class RunReport:
    """One engine run: arrival time, transmitted energy (the filtered-state
    norm^2 for the weak engine), engine tag, warnings and input digest."""

    mean_time: float
    transmission: float
    engine: str
    warnings: tuple[str, ...]
    input_digest: str


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but usage problems exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _fmt_column(values) -> list[str]:
    """_fmt over a float column, one call per value."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


def _write_csv(header: str, chunks) -> None:
    """Write a CSV table: the header, then each chunk of rows in one write.

    A chunk is a tuple of equal-length columns of formatted cells; a chunk
    without rows writes nothing.
    """
    out = sys.stdout
    out.write(header + "\n")
    for columns in chunks:
        rows = list(map(",".join, zip(*columns)))
        if rows:
            out.write("\n".join(rows) + "\n")


def _read_network(path: str) -> tuple[NetworkSpec, str]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_network(text), digest


def _weakness_warnings(spec: NetworkSpec) -> tuple[str, ...]:
    ratio = max_weakness_ratio(spec)
    if ratio > WEAKNESS_WARN_RATIO:
        return (
            f"weak-engine validity is marginal: max dgd/tc = {ratio:.6g} "
            f"exceeds {WEAKNESS_WARN_RATIO:g}",
        )
    return ()


def _print_report(report: RunReport, stream) -> None:
    print(f"engine = {report.engine}", file=stream)
    print(f"mean_time = {_fmt(report.mean_time)}", file=stream)
    print(f"transmission = {_fmt(report.transmission)}", file=stream)
    print(f"input_digest = {report.input_digest}", file=stream)
    for warning in report.warnings:
        print(f"warning = {warning}", file=stream)


def _report_dict(report: RunReport) -> dict:
    return {
        "engine": report.engine,
        "mean_time": report.mean_time,
        "transmission": report.transmission,
        "input_digest": report.input_digest,
        "warnings": list(report.warnings),
    }


def cmd_simulate(args) -> int:
    spec, digest = _read_network(args.file)
    result = run_exact(spec)
    report = RunReport(result.mean_time, result.transmission, "exact", (), digest)
    if args.intensity:
        _print_report(report, sys.stderr)
        grid, values = intensity_profile(result.state, n_points=args.points)
        _write_csv("t,intensity", [(_fmt_column(grid), _fmt_column(values))])
    elif args.json:
        print(json.dumps(_report_dict(report), sort_keys=True))
    else:
        _print_report(report, sys.stdout)
    return EXIT_OK


def cmd_weak(args) -> int:
    spec, digest = _read_network(args.file)
    result = run_weak(spec)
    report = RunReport(
        result.mean_time, result.norm_sq, "weak", _weakness_warnings(spec), digest
    )
    shifts = [
        {"index": i + 1, "kind": el.directive, "shift": result.per_element_shifts[i]}
        for i, el in enumerate(spec.elements)
    ]
    if args.json:
        print(
            json.dumps(
                {"report": _report_dict(report), "per_element_shifts": shifts},
                sort_keys=True,
            )
        )
    else:
        _print_report(report, sys.stdout)
        _write_csv(
            "index,kind,shift",
            [(
                [str(row["index"]) for row in shifts],
                [row["kind"] for row in shifts],
                _fmt_column([row["shift"] for row in shifts]),
            )],
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec, _ = _read_network(args.file)
    if args.sphere:
        grid_phi = args.grid if args.grid is not None else SPHERE_PHI_GRID
        thetas, phis, values = sweep_sphere(spec, args.theta_grid, grid_phi, args.engine)
        # One chunk per theta row; each angle is formatted once.
        phi_cells = _fmt_column(phis)
        _write_csv(
            f"theta,phi,t_{args.engine}",
            (
                ([theta] * len(phi_cells), phi_cells, _fmt_column(row))
                for theta, row in zip(_fmt_column(thetas), values)
            ),
        )
        return EXIT_OK
    grid = args.grid if args.grid is not None else DEFAULT_GRID
    phis, t_weak, t_exact = sweep_polarization(spec, grid, include_exact=args.engine == "exact")
    header = "phi,t_weak"
    columns = [_fmt_column(phis), _fmt_column(t_weak)]
    if t_exact is not None:
        header += ",t_exact"
        columns.append(_fmt_column(t_exact))
    _write_csv(header, [tuple(columns)])
    return EXIT_OK


def cmd_optimize(args) -> int:
    spec, _ = _read_network(args.file)
    grid = args.grid if args.grid is not None else DEFAULT_GRID
    result = optimize_arrangement(
        spec.elements,
        objective=args.objective,
        grid_size=grid,
        engine=args.engine,
        pulse=spec.pulse,
        keep_table=args.table,
    )
    payload = {
        "objective": result.objective,
        "best_order": list(result.best_order),
        "best_extremum": result.best_extremum,
    }
    if result.per_order_table is not None:
        payload["per_order_table"] = [
            {"order": list(order), "extremum": None if math.isnan(v) else v}
            for order, v in result.per_order_table
        ]
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        ratios = [float(tok) for tok in args.ratios.split(",") if tok]
    except ValueError:
        ratios = []
    if not ratios or not all(0.0 < r < math.inf for r in ratios):
        raise ValueError(f"--ratios must be finite and > 0, got {args.ratios!r}")
    if not 0.0 < args.bound_factor < math.inf:
        raise ValueError(f"--bound-factor must be finite and > 0, got {args.bound_factor!r}")
    spec, _ = _read_network(args.file)
    max_dgd = max((el.delay for el in spec.elements), default=0.0)
    # Every row is computed before any is written, so a failing ratio
    # leaves stdout empty.
    discrepancies, bounds = [], []
    for ratio in ratios:
        if max_dgd > 0:
            factor = ratio * spec.pulse.t_c / max_dgd
            scaled = with_scaled_dgd(spec, factor)
        else:
            scaled = spec
        exact = run_exact(scaled).mean_time
        weak = run_weak(scaled).mean_time
        total_dgd = sum(el.delay for el in scaled.elements)
        worst = max_weakness_ratio(scaled)
        discrepancies.append(abs(exact - weak))
        bounds.append(args.bound_factor * total_dgd * worst * worst)
    _write_csv(
        "ratio,discrepancy,bound",
        [(_fmt_column(ratios), _fmt_column(discrepancies), _fmt_column(bounds))],
    )
    violated = any(d > b for d, b in zip(discrepancies, bounds))
    return EXIT_BOUND if violated else EXIT_OK


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pmdpdl",
        description=(
            "Pulse arrival-time engines for chains of birefringent delay and "
            "polarization-dependent loss elements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run the exact pulse engine on a network file")
    simulate.add_argument("file", help="network file path, or - for stdin")
    simulate.add_argument("--intensity", action="store_true", help="emit a t,intensity CSV")
    simulate.add_argument("--points", type=int, default=2001, help="intensity sample count")
    simulate.add_argument("--json", action="store_true", help="emit the report as JSON")
    simulate.set_defaults(func=cmd_simulate)

    weak = sub.add_parser("weak", help="run the closed-form weak engine")
    weak.add_argument("file", help="network file path, or - for stdin")
    weak.add_argument("--json", action="store_true", help="emit report and shifts as JSON")
    weak.set_defaults(func=cmd_weak)

    sweep = sub.add_parser("sweep", help="mean time versus input polarization, as CSV")
    sweep.add_argument("file", help="network file path, or - for stdin")
    sweep.add_argument("--grid", type=int, default=None, help="polarization grid size")
    sweep.add_argument(
        "--engine", choices=("weak", "exact"), default="weak",
        help="exact adds a t_exact column (linear sweep) or replaces the engine (sphere)",
    )
    sweep.add_argument("--sphere", action="store_true", help="sweep the whole sphere")
    sweep.add_argument(
        "--theta-grid", type=int, default=SPHERE_THETA_GRID,
        help="theta grid size for --sphere",
    )
    sweep.set_defaults(func=cmd_sweep)

    optimize = sub.add_parser(
        "optimize", help="exhaustive ordering search over the file's elements"
    )
    optimize.add_argument("file", help="network file path, or - for stdin")
    optimize.add_argument("--objective", choices=("max", "min"), default="max")
    optimize.add_argument("--engine", choices=("weak", "exact"), default="weak")
    optimize.add_argument("--grid", type=int, default=None, help="polarization grid size")
    optimize.add_argument("--table", action="store_true", help="include the per-order table")
    optimize.set_defaults(func=cmd_optimize)

    validate = sub.add_parser(
        "validate", help="exact-vs-weak discrepancy across dgd rescalings"
    )
    validate.add_argument("file", help="network file path, or - for stdin")
    validate.add_argument(
        "--ratios", default="1e-1,1e-2,1e-3",
        help="comma-separated max dgd/tc ratios to test",
    )
    validate.add_argument(
        "--bound-factor", type=float, default=5.0,
        help="prefactor of the second-order discrepancy bound",
    )
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooManyElementsError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PmdPdlError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
