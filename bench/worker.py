"""One workload process: set up, signal READY, run the timed pass, check.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` on
standard output when set-up is done and the first timed operation is
next, then runs whole passes over the inputs and prints one
``RESULT <json>`` line.  The closed loop has one client on
one thread: the next operation starts only when the last has returned.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fareyulfp  # noqa: E402  (the program under test, from this checkout)
from fareyulfp import bounds, boxgraph, cli, farey  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, clear_caches, lru_caches  # noqa: E402


class Api:
    """The program as the workloads see it: plain, or through span wrappers."""

    def __init__(self, tracer):
        self.farey, self.boxgraph, self.bounds, self.cli = farey, boxgraph, bounds, cli
        self.tracer = tracer
        if tracer is not None:
            tracer.instrument(fareyulfp)

    def call(self, name: str, fn=None):
        if fn is None:
            module, attr = name.split(".")
            fn = getattr(getattr(self, module), attr)
        fn = getattr(fn, "__traced__", fn)
        return fn if self.tracer is None else self.tracer.wrap(name, fn)


def package_caches():
    """Every lru_cache in every module of the package."""
    modules = [m for name, m in sys.modules.items() if name.startswith("fareyulfp.")]
    return [cache for m in modules for cache in lru_caches(m)]


def cache_counts(caches) -> tuple[int, int]:
    infos = [cache.cache_info() for cache in caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def timed_passes(workload, seconds: float, max_ops, tracer) -> dict:
    """Whole passes over the workload's inputs until ``seconds`` are measured.

    Every pass is the same operations in the same order, and each starts
    from empty program caches (cleared outside the timed region), so every
    pass does the same work and passes differ only by machine noise.  A
    pass that has started is finished, unless ``max_ops`` stops it first.
    """
    pass_ops = len(workload.inputs)
    caches, kernel = package_caches(), lru_caches(farey)
    run = workload.run if tracer is None else tracer.wrap("bench.op", workload.run)
    hits = misses = 0
    latencies, items, failed, errors = [], [], [], []
    busy = 0.0
    position = 0
    clock = time.perf_counter
    while (busy < seconds or position % pass_ops) and (max_ops is None or position < max_ops):
        i = position % pass_ops
        if i == 0:
            if position:
                now = cache_counts(kernel)
                hits, misses = hits + now[0] - base[0], misses + now[1] - base[1]
            clear_caches(caches)
            base = cache_counts(kernel)
        if tracer is not None:
            tracer.op = position
        start = clock()
        try:
            result = run(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            latency = clock() - start
            failed.append(position)
            if len(errors) < 5:
                errors.append(f"op {i}: {exc!r}")
        else:
            latency = clock() - start
            items.append((position, i, workload.summarize(i, result)))
        latencies.append(latency)
        busy += latency
        position += 1
    now = cache_counts(kernel)
    return {
        "latencies": latencies,
        "items": items,
        "failed": failed,
        "errors": errors,
        "cache_hits": hits + now[0] - base[0],
        "cache_misses": misses + now[1] - base[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare(Api(tracer))
        # The generated inputs live for the whole run; freezing them keeps
        # the benchmark's own objects out of the program's collections.
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        measured = timed_passes(workload, args.seconds, args.ops, tracer)
        layers = {}
        if tracer is not None:  # snapshot before the checks call the program again
            layers = json.loads(json.dumps(tracer.totals))
            tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        report_bytes = sum(len(s) for _, _, s in measured["items"] if isinstance(s, str))
        problems = workload.check(measured.pop("items"))
        flagged = {position for position, _ in problems if position is not None}
        ops = len(measured["latencies"])
        commands = []
        if hasattr(workload, "command_of"):
            commands = [workload.command_of(i) for i in range(len(workload.inputs))]
        result = dict(
            measured,
            ops=ops,
            pass_ops=len(workload.inputs),
            failed=sorted(set(measured["failed"]) | flagged),
            problems=[message for _, message in problems[:10]],
            correct=not problems and not measured["failed"],
            properties=workload.properties(),
            commands=commands,
            layers=layers,
            report_bytes=report_bytes,
        )
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
