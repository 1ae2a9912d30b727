"""fareyulfp benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload {ladder,sweep,certify,all} --seed N \\
        --seconds S --trace {0,1} [--ops N]

Each workload runs in fresh worker processes (``worker.py``) as a closed
loop with one client, in whole passes over a fixed list of operations.
``--trace 0`` reports the end-to-end metrics: it starts the workload
``SETUP_RUNS`` times to take the median set-up time, and measures the
last start for ``--seconds`` seconds of operations; each time metric is
the median of its per-pass values.  ``--trace 1`` reports the per-layer
metrics: it measures one untraced worker, then one worker with span
tracing on, for half the seconds each, and reports per-pass means of
each layer's calls, counts and self time, and the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("ladder", "sweep", "certify")
COMMANDS = ("ulfp", "audit-bgit", "slice", "weak-index", "bounds", "graph-ulfp")
SETUP_RUNS = 8  # set-up samples per untraced run; the median is reported
DEADLINE_S = 170.0  # a run that lasts longer is killed and reported failed
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it


class BenchError(Exception):
    """The benchmark could not produce a result."""


def start_worker(workload: str, seed: int, seconds: float, ops, trace: bool, setup_only: bool):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if ops is not None:
        argv += ["--ops", str(ops)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def run_worker(deadline, workload, seed, seconds, ops, trace=False, setup_only=False):
    """Start one worker; return (set-up seconds, result dict or None).

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` reading).
    """
    started = time.perf_counter()
    if started >= deadline:
        raise BenchError(f"{workload} ran out of time")
    proc = start_worker(workload, seed, seconds, ops, trace, setup_only)
    watchdog = threading.Timer(deadline - started, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} worker failed (exit {code})")
    if setup_only:
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def passes(result: dict) -> list[list[float]]:
    """The latencies of each complete pass, or of the one partial pass."""
    latencies, size = result["latencies"], result["pass_ops"]
    whole = [latencies[i : i + size] for i in range(0, len(latencies) - size + 1, size)]
    return whole or [latencies]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_SAMPLES beyond it."""
    n = len(latencies)
    beyond = TAIL_SAMPLES if n > TAIL_SAMPLES else 0  # too few: the maximum
    return sorted(latencies)[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(result: dict, setups: list[float]) -> dict:
    """Each time metric is taken per pass; the median over passes is reported.

    Every pass is the same operations from the same empty caches, so the
    passes of a run differ only by the machine, and the median keeps a
    stall of the machine in one pass from setting the value.
    """
    runs = passes(result)
    return {
        "throughput_ops_s": (statistics.median(len(p) / sum(p) for p in runs), "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(statistics.median(p) for p in runs), "ms"),
        "latency_tail_ms": (1e3 * statistics.median(tail(p)[0] for p in runs), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "failed_ratio": (len(result["failed"]) / len(result["latencies"]), "1"),
    }


# Per-layer metrics read from span totals: (span name, fields).  "calls"
# and "self_s" are the span count and self time; any other field is a
# count recorded from the layer's return values (see tracing.COUNTERS).
# Each is reported per pass, so that it does not grow with the number of
# passes a faster or slower run completes.
LAYER_FIELDS = [
    ("farey.distance", ("calls", "self_s")),
    ("farey.geodesics", ("calls", "self_s", "paths")),
    ("farey.geodesic_vertices", ("calls", "self_s")),
    ("boxgraph.distance", ("calls", "self_s")),
    ("boxgraph.geodesics", ("calls", "self_s")),
    ("annular.annular_distance", ("calls", "self_s")),
    ("annular.twist_coord", ("calls",)),
    ("projections.candidate_subsurfaces", ("calls", "self_s", "subsurfaces")),
    ("projections.check_P", ("calls", "self_s")),
    ("projections.check_P_all", ("calls", "self_s", "checked_subsurfaces")),
    ("projections.proj_distance", ("calls", "self_s")),
    ("projections.ulfp_witness", ("calls", "self_s")),
    ("projections.bgit_audit", ("calls", "self_s", "pairs_audited")),
    ("slices.verify_slice_bounds", ("calls", "self_s")),
    ("slices.tight_slice", ("calls", "self_s")),
    ("slices.weak_tight_index", ("calls", "self_s")),
    ("bounds.n_bound", ("calls", "self_s", "exact_digits")),
    ("graphcore.greedy_separated", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
    ("bench.op", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s"}


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    traced_passes = traced["ops"] / traced["pass_ops"]

    def field(span: str, key: str):
        calls, duration, self_time, counts = layers.get(span, [0, 0.0, 0.0, {}])
        total = {"calls": calls, "self_s": self_time, "total_s": duration}.get(key, counts.get(key, 0))
        return total / traced_passes

    out = {}
    for span, keys in LAYER_FIELDS:
        for key in keys:
            out[f"{span}.{key}"] = (field(span, key), UNITS.get(key, "count"))
    witness_calls = field("projections.ulfp_witness", "calls")
    out["projections.ulfp_witness.witness_share"] = (
        field("projections.ulfp_witness", "witnesses") / witness_calls if witness_calls else 0.0, "1")
    out["slices.slice_members"] = (field("slices.verify_slice_bounds", "members"), "count")
    # the oracle is built once, during set-up, not in each pass
    out["boxgraph.build_s"] = (layers.get("boxgraph.build", [0, 0.0])[1], "s")
    out["graphcore.parse_s"] = (field("graphcore.parse", "total_s"), "s")

    hits, misses = traced["cache_hits"], traced["cache_misses"]
    out["farey.cache.hits"] = (hits / traced_passes, "count")
    out["farey.cache.misses"] = (misses / traced_passes, "count")
    out["farey.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "1")

    # cli figures come from the untraced worker, whose timings carry no span cost.
    out["cli.report_bytes"] = (untraced["report_bytes"] / (untraced["ops"] / untraced["pass_ops"]), "bytes")
    by_command = {c: [] for c in COMMANDS}
    commands = untraced["commands"]
    for position, latency in enumerate(untraced["latencies"] if commands else []):
        by_command[commands[position % len(commands)]].append(latency)
    for command in COMMANDS:
        values = by_command[command]
        out[f"cli.{command}.p50_ms"] = (1e3 * statistics.median(values) if values else 0.0, "ms")

    plain = statistics.median(sum(p) for p in passes(untraced))
    spanned = statistics.median(sum(p) for p in passes(traced))
    out["trace.untraced_s"] = (plain, "s")
    out["trace.traced_s"] = (spanned, "s")
    out["trace.overhead_ratio"] = (spanned / plain - 1.0, "1")
    out["trace.pass_ops"] = (traced["pass_ops"], "count")
    out["run.tail_percentile"] = (tail(passes(untraced)[0])[1], "%")
    for name in ("input.ladder.mean_terms", "input.ladder.mean_quotient_sum"):
        out[name] = (untraced["properties"].get(name, 0.0), "count")
    for command in COMMANDS:
        name = f"input.certify.mix.{command}"
        out[name] = (untraced["properties"].get(name, 0), "count")
    for bucket in ("16-31", "32-47", "48-64"):
        name = f"input.certify.set_size.{bucket}"
        out[name] = (untraced["properties"].get(name, 0), "count")
    return out


def measure(deadline, workload: str, seed: int, seconds: float, ops, trace: bool):
    """Run one workload; return (metrics, results of the measured workers)."""
    if not trace:
        setups = [run_worker(deadline, workload, seed, seconds, ops, setup_only=True)[0]
                  for _ in range(SETUP_RUNS - 1)]
        setup_s, result = run_worker(deadline, workload, seed, seconds, ops)
        return end_to_end(result, setups + [setup_s]), [result]
    _, untraced = run_worker(deadline, workload, seed, seconds / 2, ops)
    _, traced = run_worker(deadline, workload, seed, seconds / 2, ops, trace=True)
    return per_layer(untraced, traced), [untraced, traced]


def describe(workload: str, metrics: dict, results: list[dict], trace: bool) -> None:
    for label, result in zip(("untraced", "traced"), results):
        latencies = result["latencies"]
        runs = passes(result)
        print(f"== {workload} ({label}): {len(latencies)} ops in {sum(latencies):.3f} s busy, "
              f"{len(runs)} passes of {len(runs[0])} ops; tail is p{tail(runs[0])[1]:.2f} "
              f"({TAIL_SAMPLES} samples beyond it in each pass)")
        for n, p in enumerate(runs):
            print(f"   pass {n}: {len(p) / sum(p):.6g} ops/s, p50 {1e3 * statistics.median(p):.6g} ms, "
                  f"tail {1e3 * tail(p)[0]:.6g} ms")
    if trace:
        plain, spanned = metrics["trace.untraced_s"][0], metrics["trace.traced_s"][0]
        print(f"   median pass: untraced {plain:.3f} s, traced {spanned:.3f} s: "
              f"overhead {100 * (spanned / plain - 1):.1f} %")
    for name, (value, unit) in metrics.items():
        print(f"   {name:48s} {value:>16.6g} {unit}")
    for result in results:
        for message in result["problems"] + result["errors"]:
            print(f"   CHECK FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="cap on timed operations")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fareyulfp" / "__init__.py").is_file():
        print(f"error: no fareyulfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, results = measure(deadline, name, args.seed, args.seconds, args.ops, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        describe(name, metrics, results, bool(args.trace))
        summary["correct"] &= all(r["correct"] for r in results)
        summary["attempted"] += sum(r["ops"] for r in results)
        summary["failed"] += sum(len(r["failed"]) for r in results)
        if not args.trace:
            metrics.pop("failed_ratio")  # zero when correct; carried by attempted/failed
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update(
            {prefix + key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
