"""Benchmark of the fatpoints rank oracle: four workloads, checked outputs.

    python3 perfbench/run.py --workload large-rank --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                       # all four workloads

Each workload runs in a fresh worker process (perfbench/worker.py) as a
closed loop with one caller; BLAS keeps its default thread count.  With
--trace 0 a run reports the end-to-end metrics wall_s, setup_s and
peak_rss_mb; with --trace 1 it reports the per-layer metrics of a separate,
traced set of repetitions.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the metric
names and units are those BENCHMARK.json lists.  The full
record of a run (quartiles, samples, machine, failures) goes to
perfbench/out/, with the span dump of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 9
# What every command-line invocation pays: interpreter start, the package
# import and one tiny rank.
SETUP_SNIPPET = (
    "import sys, fatpoints; "
    "fatpoints.effective_dim(fatpoints.parse_system('L2(4,2^3)'), trials=1, seed=int(sys.argv[1]))"
)
# A run must end within 180 s; leave room for set-up and reporting.
WORKER_TIMEOUT_S = 165


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds(seed: int) -> float:
    """Median wall time of fresh processes that import fatpoints and rank once.

    The wait blocks instead of polling (Popen.wait with a timeout sleeps in
    steps of up to 50 ms, which would quantise the result); a timer kills a
    process that hangs.
    """
    times = []
    for i in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET, str(seed + i)], env=_env(), cwd=ROOT
        )
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--size={size}",
    ]
    if trace:
        cmd.append(f"--spans={OUT / f'spans-{workload}-seed{seed}.jsonl'}")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One run: the worker's record plus set-up time, reduced to the metrics
    BENCHMARK.json names for this trace mode."""
    OUT.mkdir(exist_ok=True)
    setup = setup_seconds(seed) if not trace else None
    rec = run_worker(workload, seed, seconds, trace, size)
    rec["setup_s"] = setup
    if trace:
        values = dict(rec["layers"], **{"machine.gemm_gflops": rec["machine"]["gemm_gflops"]})
    else:
        values = {
            "wall_s": rec["untraced"]["wall_s"]["median"],
            "setup_s": setup,
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(rec["failures"])
    rec["result"] = {
        "correct": failed == 0,
        "attempted": rec["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(rec, indent=2, default=repr) + "\n", encoding="utf-8"
    )
    return rec


def describe(rec: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, and the failures."""
    res = rec["result"]
    m = rec["machine"]
    blas = m["blas"]
    lines = [
        f"# {rec['workload']} seed={rec['seed']} size={rec['size']}: "
        f"{res['attempted']} checks, {res['failed']} failed, "
        f"failed_ratio={res['failed'] / res['attempted']:.4g}",
        f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} blas={blas['name']} "
        f"{blas['version']} threads={blas['threads']} numpy={m['numpy']} "
        f"python={m['python']} rev={m['git_revision']} gemm_gflops={m['gemm_gflops']:.1f}",
    ]
    w = rec["untraced"]["wall_s"]
    lines.append(
        f"# wall_s median={w['median']:.4f} s q1={w['q1']:.4f} q3={w['q3']:.4f} n={w['n']}"
    )
    for name, v in res["metrics"].items():
        lines.append(f"{name} = {v['value']:.6g} {v['unit']}")
    if "layers" in rec:
        lay = rec["layers"]
        lines.append(
            f"# interp.build_s + gfprime.rank.busy_s = "
            f"{lay['interp.build_s'] + lay['gfprime.rank.busy_s']:.4f} s; wall_s "
            f"{rec['traced']['wall_s']['median']:.4f} s traced, {w['median']:.4f} s untraced"
        )
    lines += [f"# FAILED: {f}" for f in rec["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke runs every workload at reduced size, for testing the harness",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"error: no fatpoints package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
        names = [args.workload]

    records = []
    for name in names:
        try:
            rec = run_one(spec, name, args.seed, seconds, args.trace, args.size)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(rec)), flush=True)
        records.append(rec)

    if args.workload != "all":
        print(json.dumps(records[0]["result"]))
        return 0
    print(
        f"\n{'workload':<16}{'wall_s (s)':>12}{'setup_s (s)':>13}"
        f"{'peak_rss_mb (MB)':>18}{'failed_ratio':>14}"
    )
    for rec in records:
        res = rec["result"]
        ratio = res["failed"] / res["attempted"]
        wall = rec["untraced"]["wall_s"]["median"]
        setup = f"{rec['setup_s']:.4f}" if rec["setup_s"] is not None else "-"
        print(
            f"{rec['workload']:<16}{wall:>12.4f}{setup:>13}"
            f"{rec['peak_rss_mb']:>18.1f}{ratio:>14.4g}"
        )
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
