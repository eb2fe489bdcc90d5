"""Runs one workload in its own process and prints its result as JSON.

Usage (normally started by run.py, with PYTHONPATH pointing at src and
BLAS pinned to one thread):

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--spans FILE]

Untraced: one client in a closed loop, each op starting when the previous
one returns. The run is a series of passes over the same PASS_OPS ops,
until the ops have taken S seconds and at least MIN_PASSES passes ran.
Every time is scaled to reference host speed (hostspeed.py). Each op
position's latency is then the fastest of its repetitions (best of k, as
timeit reports), which takes out short bursts of interference from other
tenants; the percentiles are over the PASS_OPS positions, and the
throughput is that of one client whose ops each take that time. Every op's
output is checked against the reference after its timer stops.

Before each pass, SETUP_PER_PASS fresh interpreters import pmdpdl and parse
every input text (setup_child.py); setup_s is the median launch-to-ready
time at reference speed, so the launches are spread over the whole run.

Traced: the workload's first `trace_ops` ops run as a pass without tracing
and then as a pass with tracing, in turns, until S seconds have passed.
Counters come from the first traced pass, times are medians over traced
passes, and the tracing overhead is the fastest traced pass time minus the
fastest untraced pass time.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads
from tracing import Instrumentation, Tracer, layer_metrics

# At least ten samples must lie beyond the 90th percentile.
PASS_OPS = 100
MIN_PASSES = 3
SETUP_PER_PASS = 2
MAX_ERRORS_KEPT = 5
SETUP_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")


class SetupProbe:
    """Fresh-interpreter launches that import pmdpdl and parse the texts."""

    def __init__(self, texts, workdir: str):
        self.path = os.path.join(workdir, "texts.json")
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(texts, handle)
        self.records: list[dict] = []

    def launch(self, count: int) -> None:
        for _ in range(count):
            speed = hostspeed.factors([hostspeed.sample() for _ in range(5)])[2]
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, SETUP_CHILD, self.path],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate()
            if proc.returncode != 0 or not line:
                raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-500:]}")
            record = json.loads(line)
            record["raw_setup_s"] = ready - start
            record["setup_s"] = speed * (ready - start)
            self.records.append(record)

    def median(self, key: str) -> float:
        return statistics.median(record[key] for record in self.records)


def prepare(workload: workloads.Workload, seed: int, workdir: str) -> list[workloads.Item]:
    """Generate, render and parse the inputs, then compute their references.

    Parsing goes through the program's parse_network, looked up at call
    time so that a traced run records it.
    """
    from pmdpdl import network

    items = []
    for index, net in enumerate(workloads.generate_nets(workload, seed)):
        text = net.text()
        item = workloads.Item(net, text, network.parse_network(text))
        if workload.name == "cli_sphere":
            item.path = os.path.join(workdir, f"{workload.name}-{index:02d}.net")
            with open(item.path, "w", encoding="utf-8") as handle:
                handle.write(text)
        items.append(item)
    for item in items:
        item.ref = workload.reference(item.net)
    return items


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, workload, item, outcome, op_index: int) -> None:
        self.attempted += 1
        problem = workload.check(item.ref, outcome)
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"op {op_index}: {problem}")


def run_untraced(workload, items, seconds: float, tally: Tally, probe: SetupProbe) -> dict:
    best = [float("inf")] * PASS_OPS      # at reference host speed
    best_raw = [float("inf")] * PASS_OPS  # wall clock, for the summary only
    passes = 0
    busy = 0.0
    failed_before = tally.failed
    while passes < MIN_PASSES or busy < seconds:
        probe.launch(SETUP_PER_PASS)
        kernel_s, op_s = [], []
        for index in range(PASS_OPS):
            item = items[index % len(items)]
            kernel_s.append(hostspeed.sample())
            start = time.perf_counter()
            outcome = workload.op(item)
            op_s.append(time.perf_counter() - start)
            tally.record(workload, item, outcome, index)
        for index, (elapsed, speed) in enumerate(zip(op_s, hostspeed.factors(kernel_s))):
            best[index] = min(best[index], speed * elapsed)
            best_raw[index] = min(best_raw[index], elapsed)
        busy += sum(op_s)
        passes += 1
    attempted = PASS_OPS * passes
    success = (attempted - (tally.failed - failed_before)) / attempted
    return {
        "setup_s": (probe.median("setup_s"), "s"),
        "ops_per_s": (success * PASS_OPS / sum(best), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(best, n=10, method="inclusive")[8], "ms"),
        "success_rate": (success, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "setup_s": probe.median("raw_setup_s"),
        "latency_p50_ms": 1e3 * statistics.median(best_raw),
        "latency_p90_ms": 1e3 * statistics.quantiles(best_raw, n=10, method="inclusive")[8],
        "passes": passes,
    }


def run_traced(workload, items, seconds, tally, probe, instrumentation, setup, spans_path) -> dict:
    block = [items[i % len(items)] for i in range(workload.trace_ops)]
    plain_s, traced_s, tracers = [], [], []
    began = time.perf_counter()
    while not tracers or time.perf_counter() - began < seconds:
        probe.launch(SETUP_PER_PASS)
        start = time.perf_counter()
        outcomes = [workload.op(item) for item in block]
        plain_s.append(time.perf_counter() - start)
        for index, (item, outcome) in enumerate(zip(block, outcomes)):
            tally.record(workload, item, outcome, index)

        tracer = Tracer()
        instrumentation.install(tracer)
        start = time.perf_counter()
        try:
            outcomes = [tracer.run_op(i, workload.op, item) for i, item in enumerate(block)]
        finally:
            traced_s.append(time.perf_counter() - start)
            instrumentation.uninstall()
        for index, (item, outcome) in enumerate(zip(block, outcomes)):
            tally.record(workload, item, outcome, index)
            if isinstance(outcome.value, str):
                tracer.counts["cli.stdout_bytes"] += len(outcome.value.encode("utf-8"))
        tracers.append(tracer)

    if spans_path:
        setup.spans.extend(tracers[0].spans)
        setup.write_spans(spans_path)
    overhead = min(traced_s) - min(plain_s)
    metrics = layer_metrics(setup, tracers, overhead)
    metrics["cli.import_s"] = (probe.median("import_s"), "s")
    metrics["cli.numpy_import_s"] = (probe.median("numpy_import_s"), "s")
    broken = set().union(*(t.broken_counters for t in tracers), setup.broken_counters)
    return {"metrics": metrics, "absent": instrumentation.absent, "broken_counters": sorted(broken)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    import numpy

    instrumentation = Instrumentation()
    setup = Tracer()
    if args.trace:
        instrumentation.install(setup)
    try:
        items = prepare(workload, args.seed, args.workdir)
    finally:
        instrumentation.uninstall()
    probe = SetupProbe([item.text for item in items], args.workdir)

    # Warm-up: one untimed op, so lazy set-up is not timed. It is checked
    # and counted in attempted/failed like every other op.
    tally = Tally()
    tally.record(workload, items[0], workload.op(items[0]), -1)

    result = {"numpy_version": numpy.__version__}
    if args.trace:
        result.update(run_traced(
            workload, items, args.seconds, tally, probe, instrumentation, setup, args.spans))
    else:
        result["metrics"], result["wall_clock"] = run_untraced(
            workload, items, args.seconds, tally, probe)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                  setup_launches=len(probe.records))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
