"""One workload in a fresh process: warm up, time repetitions, check outputs.

A closed loop with one caller and one call in flight.  With --trace 1 the
untraced repetitions run first, then the traced ones with every target
patched; the ratio of the two medians is the tracing overhead.  The result
is one JSON object on the last line of standard output.

    python3 perfbench/worker.py --workload counterexample --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(case, seconds: float, min_reps: int, tracer=None) -> dict:
    """Repeat the case for about `seconds`, and at least `min_reps` times.

    A repetition starts only while at least half of one more still fits in
    the window, so a workload whose repetition outlasts the window (the
    4200 x 5456 rank) runs once instead of twice.
    """
    times: list[float] = []
    attempted = 0
    failures: list[str] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start + times[-1] / 2 < seconds:
        if tracer is not None:
            tracer.rep = len(times)
        t0 = time.perf_counter()
        checks = case.rep()
        times.append(time.perf_counter() - t0)
        attempted += len(checks)
        failures += [label for label, ok in checks if not ok]
    return {
        "wall_s": _quartiles(times),
        "samples": times,
        "attempted": attempted,
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--spans", help="file for the span dump of a traced run")
    args = ap.parse_args(argv)

    originals = tracing.snapshot()
    case = WORKLOADS[args.workload](args.seed % 2**64, args.size == "smoke")
    case.warm()
    untraced = measure(case, args.seconds, min_reps=1)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "untraced": untraced,
        "attempted": untraced["attempted"],
        "failures": list(untraced["failures"]),
    }
    if args.trace:
        tracer = tracing.Tracer(args.workload)
        with tracer.installed():
            traced = measure(case, args.seconds, min_reps=2, tracer=tracer)
        layers, varied = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_ratio"] = (
            traced["wall_s"]["median"] / untraced["wall_s"]["median"]
        )
        result.update(traced=traced, layers=layers)
        result["attempted"] += traced["attempted"] + 1
        result["failures"] += traced["failures"]
        if varied:
            result["failures"].append("counts differ between repetitions: " + ", ".join(varied))
        if args.spans:
            tracer.dump(args.spans)
    if tracing.snapshot() != originals:
        raise RuntimeError("a traced name was left patched after the run")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine.record(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
