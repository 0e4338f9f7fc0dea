"""Spans around calls into the fatpoints layers, recorded from outside.

The traced run replaces public functions by timing wrappers at the names
their callers look up (`pipeline.effective_dim` and `interp.effective_dim`,
`interp.mulmod_vec`, `interp.on_quadric`, the `rank` method, ...) and puts
the originals back when it ends.  Spans stay in memory and are written out
once, after the timed repetitions.  Per-layer metrics are computed per
repetition from the spans; counts must repeat exactly between repetitions.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from fatpoints import blowup, gfprime, interp, pipeline

# Metrics that count work; they must be identical on every repetition of a seed.
COUNT_METRICS = (
    "interp.effective_dim.calls",
    "interp.effective_dim.distinct",
    "interp.trials.requested",
    "interp.trials.run",
    "interp.on_quadric.lines_per_point",
    "gfprime.rank.calls",
    "gfprime.rank.cells",
    "gfprime.rank.macs",
    "gfprime.mulmod_vec.calls",
    "gfprime.mulmod_vec.elements",
)

# Rank busy time is also split by the bit length of the prime.
PRIME_BITS = (20, 31, 40)

_EFFECTIVE_DIM_SIG = inspect.signature(interp.effective_dim)


def _effective_dim_attrs(args, kwargs, out):
    bound = _EFFECTIVE_DIM_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"key": tuple(bound.arguments.values()), "trials": bound.arguments["trials"]}


def _rank_attrs(args, kwargs, out):
    mat = args[0]
    return {"m": mat.rows, "n": mat.cols, "r": out, "p": mat.field.p}


def _with_counter(fn):
    """on_quadric always given a counter, so its span can read the lines tried."""

    def call(*args, counter=None, **kwargs):
        return fn(*args, counter={} if counter is None else counter, **kwargs)

    return call


# (owner, attribute, span name, attrs(args, kwargs, result), adapter)
TARGETS = (
    (pipeline, "run_counterexample", "pipeline.run_counterexample", None, None),
    (pipeline, "report_to_json", "pipeline.report_to_json", None, None),
    (pipeline, "effective_dim", "interp.effective_dim", _effective_dim_attrs, None),
    (interp, "effective_dim", "interp.effective_dim", _effective_dim_attrs, None),
    (pipeline, "enumerate_neg_curves", "blowup.enumerate_neg_curves", None, None),
    (blowup, "hh_predict_special", "blowup.hh_predict_special", None, None),
    (interp, "quadric_through", "interp.quadric_through", None, None),
    (
        interp,
        "on_quadric",
        "interp.on_quadric",
        lambda a, kw, out: {"lines": kw["counter"]["attempts"]},
        _with_counter,
    ),
    (
        interp,
        "mulmod_vec",
        "gfprime.mulmod_vec",
        lambda a, kw, out: {"elements": int(out.size)},
        None,
    ),
    (gfprime.PrimeFieldMatrix, "rank", "gfprime.rank", _rank_attrs, None),
)


def snapshot() -> tuple:
    """The objects currently bound at every traced name."""
    return tuple(getattr(owner, attr) for owner, attr, *_ in TARGETS)


class Tracer:
    """Collects spans: name, start, end, parent span, workload and repetition."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rep: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "rep": self.rep,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, attrs, adapter in TARGETS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                wrapped = self.wrap(name, orig, attrs)
                setattr(owner, attr, adapter(wrapped) if adapter else wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True, default=repr) + "\n")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _macs(m: int, n: int, r: int) -> float:
    """Multiply-adds of elimination to rank r, m*n*r - (m+n)r^2/2 + r^3/3 (computed)."""
    return (6 * m * n * r - 3 * (m + n) * r * r + 2 * r**3) / 6


def rep_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _dur(s)

    def busy(name: str) -> float:
        return sum(_dur(s) for s in by[name])

    ed = by["interp.effective_dim"]
    ed_ids = {s["id"] for s in ed}
    ranks = by["gfprime.rank"]
    trial_ranks = [s for s in ranks if s["parent"] in ed_ids]
    samples = [
        s
        for name in ("interp.on_quadric", "interp.quadric_through")
        for s in by[name]
        if s["parent"] in ed_ids
    ]
    sample_s = sum(_dur(s) for s in samples)
    trial_s = sum(_dur(s) for s in trial_ranks)
    points = by["interp.on_quadric"]
    rank_busy = busy("gfprime.rank")
    macs = sum(_macs(s["m"], s["n"], s["r"]) for s in ranks)
    out = {
        "interp.effective_dim.calls": len(ed),
        "interp.effective_dim.distinct": len({s["key"] for s in ed}),
        "interp.effective_dim.busy_s": busy("interp.effective_dim"),
        "interp.trials.requested": sum(s["trials"] for s in ed),
        "interp.trials.run": len(trial_ranks),
        "interp.build_s": busy("interp.effective_dim") - trial_s - sample_s,
        "interp.sample_s": sample_s,
        "interp.on_quadric.lines_per_point": (
            sum(s["lines"] for s in points) / len(points) if points else 0.0
        ),
        "gfprime.rank.calls": len(ranks),
        "gfprime.rank.busy_s": rank_busy,
        "gfprime.rank.cells": sum(s["m"] * s["n"] for s in ranks),
        "gfprime.rank.macs": macs,
        "gfprime.rank.gmacs_per_s": macs / rank_busy / 1e9 if rank_busy else 0.0,
        "gfprime.mulmod_vec.calls": len(by["gfprime.mulmod_vec"]),
        "gfprime.mulmod_vec.elements": sum(s["elements"] for s in by["gfprime.mulmod_vec"]),
        "gfprime.mulmod_vec.busy_s": busy("gfprime.mulmod_vec"),
        "blowup.enumerate_neg_curves.busy_s": busy("blowup.enumerate_neg_curves"),
        "blowup.hh_predict_special.busy_s": busy("blowup.hh_predict_special"),
        "pipeline.self_s": sum(
            _dur(s) - children[s["id"]] for s in by["pipeline.run_counterexample"]
        ),
        "pipeline.report_to_json.busy_s": busy("pipeline.report_to_json"),
    }
    for bits in PRIME_BITS:
        out[f"gfprime.rank.busy_s.p{bits}"] = sum(
            _dur(s) for s in ranks if s["p"].bit_length() == bits
        )
    return out


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over all traced repetitions, and the counts that varied.

    Counts are those of the first repetition, times are medians over
    repetitions, and the per-call p50s pool every call.
    """
    reps = defaultdict(list)
    for s in spans:
        reps[s["rep"]].append(s)
    per_rep = [rep_metrics(reps[k]) for k in sorted(reps)]
    varied = [k for k in COUNT_METRICS if len({r[k] for r in per_rep}) > 1]
    out = {
        k: per_rep[0][k] if k in COUNT_METRICS else statistics.median(r[k] for r in per_rep)
        for k in per_rep[0]
    }
    for name in ("interp.effective_dim", "gfprime.rank"):
        calls = [_dur(s) for s in spans if s["name"] == name]
        out[f"{name}.p50_ms"] = statistics.median(calls) * 1e3 if calls else 0.0
    return out, varied
