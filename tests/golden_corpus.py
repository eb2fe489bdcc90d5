"""Golden-output corpus of the command-line tool.

The network files in golden/ are run through `pmdpdl.cli.main` with the
command lines in CASES, and golden/expected.json records, for each (file,
command line), the exit code, the stderr text and the stdout sha256. An
exact-engine output also records its numbers, each with the tolerance it is
held to (times within TIME_TOL of the chain's total dgd, transmissions within
TRANSMISSION_RTOL relative), and the sha256 of its stdout with those numbers
masked, so the rest of its text is still held byte for byte.

Regenerate the expectations with

    PYTHONPATH=src python tests/golden_corpus.py

The generator checks every exact-engine number against the independent
frequency-domain evaluation in frequency_domain.py before it writes the file.
A change that regenerates it lists every output that moved in CHANGES.md.
With --check it writes nothing: it prints each output that would change,
with its largest numeric change, and exits 1 if any would.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from frequency_domain import evaluate, jones
from pmdpdl import cli, jones_angles, parse_network, run_weak, with_scaled_dgd

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"

TIME_TOL = 1e-12
TRANSMISSION_RTOL = 1e-12
# The oracle's mean time loses digits as the transmission falls; below this
# transmission its tolerance grows as 1 / transmission.
ORACLE_FULL_TRANSMISSION = 1e-3
# A blocked (NaN) output must have the oracle transmitting less than this.
ORACLE_BLOCKED = 1e-10

WEAK = (
    ("weak",),
    ("weak", "--json"),
    ("sweep", "--grid", "24"),
    ("sweep", "--sphere", "--theta-grid", "7", "--grid", "12"),
)
OPTIMIZE = (("optimize", "--grid", "36", "--table"),)
# Exact-engine commands run only on chains of at most 5 elements.
EXACT = (
    ("simulate",),
    ("simulate", "--json"),
    ("sweep", "--grid", "12", "--engine", "exact"),
    ("sweep", "--sphere", "--theta-grid", "4", "--grid", "6", "--engine", "exact"),
    ("validate",),
)
# The minimum, and the exact-engine ordering search on small bags.
MORE_OPTIMIZE = (
    ("optimize", "--grid", "36", "--objective", "min"),
    ("optimize", "--grid", "8", "--engine", "exact", "--table"),
)

CASES = {
    **{f"bag5_seed1_{i}.net": WEAK + OPTIMIZE + EXACT for i in range(8)},
    **{f"chain9_seed1_{i}.net": WEAK for i in range(3)},
    "polarizer.net": WEAK + OPTIMIZE + EXACT + MORE_OPTIMIZE,
    "dgd_zero.net": WEAK + OPTIMIZE + EXACT,
    "empty.net": WEAK + EXACT + (("optimize",),),
    "filters_only.net": WEAK + OPTIMIZE + EXACT,
    "bag4.net": WEAK + OPTIMIZE + EXACT + MORE_OPTIMIZE,
    "axis_1e200.net": WEAK + OPTIMIZE + EXACT,
    "tc_1e-300.net": WEAK + EXACT,
    "parse_error.net": (("simulate",), ("weak",)),
    "all_blocked.net": (
        ("simulate",),
        ("weak",),
        ("sweep", "--grid", "8"),
        ("sweep", "--grid", "8", "--engine", "exact"),
        ("optimize", "--grid", "8"),
    ),
    "nine_elements.net": (("weak",), ("optimize",)),
    "overflow_mu1419.net": (("simulate",), ("weak",)),
    "overflow_opposed.net": (("simulate",), ("weak",)),
}


def is_exact(argv) -> bool:
    return argv[0] in ("simulate", "validate") or "exact" in argv


def run(name: str, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(GOLDEN / name), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def split_exact(argv, stdout: str) -> tuple[str, list]:
    """Stdout of an exact-engine command with its exact-engine numbers masked,
    and those numbers as (kind, where, value) records.

    kind is "time" or "transmission"; where is the Poincare point (theta,
    phi) of a sweep row, the element order of an optimize entry, the dgd
    ratio of a validate row, and None for simulate.
    """
    numbers = []
    command = argv[0]
    if command == "simulate" and "--json" in argv:
        payload = json.loads(stdout)
        for kind, key in (("time", "mean_time"), ("transmission", "transmission")):
            numbers.append((kind, None, payload[key]))
            payload[key] = None
        return json.dumps(payload, sort_keys=True), numbers
    if command == "optimize":
        payload = json.loads(stdout)
        numbers.append(("time", tuple(payload["best_order"]), payload["best_extremum"]))
        payload["best_extremum"] = None
        for row in payload.get("per_order_table", ()):
            value = math.nan if row["extremum"] is None else row["extremum"]
            numbers.append(("time", tuple(row["order"]), value))
            row["extremum"] = None
        return json.dumps(payload, sort_keys=True), numbers
    lines = stdout.splitlines()
    if command == "simulate":
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            if key in ("mean_time", "transmission"):
                kind = "time" if key == "mean_time" else "transmission"
                numbers.append((kind, None, float(value)))
                lines[i] = f"{key}{sep}*"
        return "\n".join(lines), numbers
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if command == "validate":
            numbers.append(("time", float(cells[0]), float(cells[1])))
            cells[1] = "*"
        elif "--sphere" in argv:
            numbers.append(("time", (float(cells[0]), float(cells[1])), float(cells[-1])))
            cells[-1] = "*"
        else:
            numbers.append(("time", (float(cells[0]), 0.0), float(cells[-1])))
            cells[-1] = "*"
        lines[i] = ",".join(cells)
    return "\n".join(lines), numbers


def _dgd_sum(spec) -> float:
    return sum(el.delay for el in spec.elements)


def _scaled_for_ratio(spec, ratio: float):
    """The chain `validate` evaluates at one max dgd/tc ratio."""
    max_dgd = max((el.delay for el in spec.elements), default=0.0)
    if max_dgd > 0:
        return with_scaled_dgd(spec, ratio * spec.pulse.t_c / max_dgd)
    return spec


def tolerance(spec, argv, kind: str, where, value: float) -> float:
    """Absolute tolerance of one exact-engine number."""
    if kind == "transmission":
        return TRANSMISSION_RTOL * abs(value)
    if argv[0] == "validate":
        return TIME_TOL * _dgd_sum(_scaled_for_ratio(spec, where))
    return TIME_TOL * _dgd_sum(spec)


# --- generator: everything below checks against the independent oracle ----

def _oracle(spec, psi) -> tuple[float, float]:
    """(mean time, transmission) of the chain with unit input psi, from
    frequency_domain.evaluate, which never sees a pmdpdl object."""
    chain = []
    for el in spec.elements:
        if el.directive == "polarizer":
            chain.append(("polarizer", *jones_angles(el.state)))
        else:
            (_, axis), (_, (magnitude,)) = el.text_fields()
            chain.append((el.directive, axis, magnitude))
    t_c = spec.pulse.t_c
    if _dgd_sum(spec) > 20.0 * t_c:
        # Beyond the quadrature's range; a lone delay section's integrand is
        # the same at every frequency, so any t_c gives its exact average.
        if len(chain) != 1 or chain[0][0] != "pmd":
            raise ValueError("chain is beyond the frequency-domain oracle's range")
        t_c = 1.0
    return evaluate(t_c, spec.pulse.omega0, psi, chain)


def _oracle_values(spec, argv, kind: str, where) -> tuple[float, float]:
    """(oracle value, oracle transmission) for one exact-engine number."""
    psi = spec.input.as_array()
    if argv[0] == "validate":
        scaled = _scaled_for_ratio(spec, where)
        time, trans = _oracle(scaled, psi)
        return abs(time - run_weak(scaled).mean_time), trans
    if argv[0] == "optimize":
        grid = int(argv[argv.index("--grid") + 1])
        ordered = replace(spec, elements=tuple(spec.elements[i] for i in where))
        values = []
        for phi in np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False).tolist():
            time, trans = _oracle(ordered, jones(phi, 0.0))
            values.append(time if trans >= ORACLE_BLOCKED else math.nan)
        pick = max if "min" not in argv else min
        finite = [v for v in values if not math.isnan(v)]
        return (pick(finite), 1.0) if finite else (math.nan, 0.0)
    if where is not None:
        psi = jones(*where)
    time, trans = _oracle(spec, psi)
    return (time if kind == "time" else trans), trans


def _check_against_oracle(spec, argv, kind, where, value, tol) -> None:
    expected, trans = _oracle_values(spec, argv, kind, where)
    if math.isnan(value):
        if not trans < ORACLE_BLOCKED:
            raise AssertionError(f"{argv} at {where}: NaN where the oracle transmits {trans!r}")
        return
    allowed = tol * max(1.0, ORACLE_FULL_TRANSMISSION / trans)
    if not abs(value - expected) <= allowed:
        raise AssertionError(
            f"{argv} at {where}: {kind} {value!r} is off the oracle's {expected!r} "
            f"by {abs(value - expected):.3g} > {allowed:.3g}"
        )


def expectations() -> list[dict]:
    """One record per (file, command line), exact-engine numbers checked."""
    records = []
    for name, commands in sorted(CASES.items()):
        for argv in commands:
            code, out, err = run(name, argv)
            record = {
                "file": name,
                "argv": list(argv),
                "exit": code,
                "stderr": err,
                "stdout_sha256": sha256(out),
            }
            if is_exact(argv) and code == 0:
                spec = parse_network((GOLDEN / name).read_text())
                masked, numbers = split_exact(argv, out)
                checked = []
                for kind, where, value in numbers:
                    tol = tolerance(spec, argv, kind, where, value)
                    _check_against_oracle(spec, argv, kind, where, value, tol)
                    checked.append([value, tol])
                record["masked_sha256"] = sha256(masked)
                record["numbers"] = checked
            records.append(record)
    return records


def _dump(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True) + "\n"


def _change(old: dict | None, new: dict | None) -> str:
    """Which fields of one record would change, and its largest numeric change
    (NaN when a number turns blocked or unblocked)."""
    if old is None or new is None:
        return "added" if old is None else "removed"
    keys = sorted(old.keys() | new.keys())
    text = ", ".join(k for k in keys if _dump(old.get(k)) != _dump(new.get(k))) + " differ"
    old_numbers, new_numbers = old.get("numbers", []), new.get("numbers", [])
    if len(old_numbers) != len(new_numbers):
        return text
    changes = [
        0.0 if math.isnan(a) and math.isnan(b) else abs(a - b)
        for (a, _), (b, _) in zip(old_numbers, new_numbers)
    ]
    largest = math.nan if any(map(math.isnan, changes)) else max(changes, default=0.0)
    return f"{text}; largest numeric change {largest:.3g}"


def check(records) -> int:
    """Print each committed record that `records` would change; 1 if any."""
    def keyed(entries):
        return {(r["file"], tuple(r["argv"])): r for r in entries}

    old, new = keyed(json.loads(EXPECTED.read_text())), keyed(records)
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        if _dump(old.get(key)) != _dump(new.get(key)):
            changed += 1
            print(f"{key[0]}: {' '.join(key[1])}: {_change(old.get(key), new.get(key))}")
    print(f"{changed} of {len(records)} outputs would change")
    return 1 if changed else 0


def main(args) -> int:
    records = expectations()
    if args == ["--check"]:
        return check(records)
    if args:
        print("usage: golden_corpus.py [--check]", file=sys.stderr)
        return 2
    EXPECTED.write_text(_dump(records))
    print(f"wrote {len(records)} outputs to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
