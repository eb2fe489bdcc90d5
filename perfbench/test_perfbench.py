"""Self-tests of the benchmark: its reference, its checkers and its tracer.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SEED = 7
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Two prepared inputs of every workload, parsed by the program."""
    out = {}
    for name in NAMES:
        workload = dataclasses.replace(workloads.WORKLOADS[name], pool=2)
        workdir = tmp_path_factory.mktemp(name)
        out[name] = (workload, worker.prepare(workload, SEED, str(workdir)))
    return out


def _perturbed(name: str, outcome: workloads.Outcome) -> workloads.Outcome:
    """The op's own result with its mean time moved by 1e-6 (downwards for
    the ordering search, whose check is one-sided)."""
    value = outcome.value
    if name == "exact_chains":
        value = dataclasses.replace(value, mean_time=value.mean_time + 1e-6)
    elif name == "exact_scan":
        value = (value[0], value[1] + 1e-6)
    elif name == "weak_optimize":
        value = dataclasses.replace(value, best_extremum=value.best_extremum - 1e-6)
    else:
        header, first, rest = value.split("\n", 2)
        theta, phi, t = first.split(",")
        value = "\n".join([header, f"{theta},{phi},{float(t) + 1e-6!r}", rest])
    return dataclasses.replace(outcome, value=value)


def test_generation_is_seeded():
    for name in NAMES:
        workload = workloads.WORKLOADS[name]
        first = [net.text() for net in workloads.generate_nets(workload, SEED)]
        again = [net.text() for net in workloads.generate_nets(workload, SEED)]
        other = [net.text() for net in workloads.generate_nets(workload, SEED + 1)]
        assert first == again
        assert first != other


def test_quadrature_is_converged():
    """Doubling the Gauss-Hermite nodes moves no reference value."""
    for net in workloads.generate_nets(workloads.WORKLOADS["exact_chains"], SEED)[:4]:
        nodes = ref.quadrature_nodes(net.t_c, net.total_dgd)
        psi = ref.jones(*net.input)
        base = ref.evaluate(ref.exact_forms(net.elements, net.t_c, net.omega0, nodes), psi)
        fine = ref.evaluate(ref.exact_forms(net.elements, net.t_c, net.omega0, 2 * nodes), psi)
        assert abs(base[0][0] - fine[0][0]) <= 1e-13 * net.total_dgd
        assert abs(base[1][0] - fine[1][0]) <= 1e-13 * base[1][0]


def test_linear_bound_is_the_maximum_over_a_fine_grid():
    net = workloads.generate_nets(workloads.WORKLOADS["exact_scan"], SEED)[0]
    forms = ref.exact_forms(net.elements, net.t_c, net.omega0)
    values, _ = ref.evaluate(forms, ref.linear_states(np.linspace(0, 2 * np.pi, 20001)))
    bound = ref.linear_maximum(forms)
    assert values.max() <= bound + 1e-12
    assert values.max() >= bound - 1e-6


@pytest.mark.parametrize("name", NAMES)
def test_seed_code_passes_every_check(prepared, name):
    workload, items = prepared[name]
    tally = worker.Tally()
    for index, item in enumerate(items):
        tally.record(workload, item, workload.op(item), index)
    assert tally.failed == 0, tally.errors
    assert tally.attempted == len(items)


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_result_and_wrong_exit_code_are_failures(prepared, name):
    workload, items = prepared[name]
    item = items[0]
    outcome = workload.op(item)
    tally = worker.Tally()
    tally.record(workload, item, outcome, 0)
    tally.record(workload, item, _perturbed(name, outcome), 1)
    tally.record(workload, item, dataclasses.replace(outcome, code=3), 2)
    assert (tally.attempted, tally.failed) == (3, 2), tally.errors


def test_extremum_check_rejects_a_value_past_the_analytic_bound(prepared):
    workload, items = prepared["weak_optimize"]
    outcome = workload.op(items[0])
    order = tuple(outcome.value.best_order)
    _, bound = items[0].ref["per_order"][order]
    beyond = dataclasses.replace(outcome.value, best_extremum=bound + 1e-6)
    assert workload.check(items[0].ref, dataclasses.replace(outcome, value=beyond))


def test_unparseable_cli_output_is_a_failure(prepared):
    workload, items = prepared["cli_sphere"]
    for text in ("", "theta,phi,t_weak\n1,2\n", "theta,phi,t_weak\n1,2,x\n"):
        assert workload.check(items[0].ref, workloads.Outcome(0, text))


def test_missing_target_is_reported_not_fatal(prepared, monkeypatch):
    workload, items = prepared["exact_chains"]
    gone = ("pmdpdl.network", "no_such_function", "pulse", True, None, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    instrumentation = tracing.Instrumentation()
    tracer = tracing.Tracer()
    instrumentation.install(tracer)
    try:
        outcome = tracer.run_op(0, workload.op, items[0])
    finally:
        instrumentation.uninstall()
    assert "pmdpdl.network.no_such_function" in instrumentation.absent
    assert workload.check(items[0].ref, outcome) is None
    assert tracer.counts["network.run_exact_calls"] == 1


def test_uninstall_restores_every_attribute():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS}
    instrumentation = tracing.Instrumentation()
    instrumentation.install(tracing.Tracer())
    instrumentation.uninstall()
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS}
    assert before == after


EXACT_COUNTERS = (
    "pulse.terms_out", "pulse.overlap_pairs", "weak.forms_calls",
    "optimizer.engine_calls", "optimizer.orderings_scored",
)


def _worker_run(name: str, trace: int, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--workdir", str(workdir)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    return result["metrics"]


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_exact_counters_repeat(name, tmp_path):
    first = _worker_run(name, 1, tmp_path)
    second = _worker_run(name, 1, tmp_path)
    assert set(first) == _declared("per_layer")
    for key in EXACT_COUNTERS:
        assert first[key]["value"] == second[key]["value"], key


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    metrics = _worker_run("weak_optimize", 0, tmp_path)
    assert set(metrics) == _declared("end_to_end")
    assert metrics["success_rate"]["value"] == 1.0


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
