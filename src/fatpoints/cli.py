"""Command-line interface.

Each reporting command has one handler, bound to its subparser with
`set_defaults`: `(args) -> (obj, text)`, where `obj` is the command's JSON
report without the "command" key and `text` its plain output. `_dispatch`
adds the "command" key and prints one of the two. `counterexample` renders
its report through `pipeline` and exits 1 when a check fails.

Exit codes: 0 success, 1 a verification check failed, sampling broke
down or the run ran out of memory, 2 malformed invocation or unparsable
literal (messages carry the byte offset of the offending character).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .blowup import (
    EnumBounds,
    chi_rr,
    cremona_reduce,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    intersect2,
    intersect3,
    parse_class,
    speciality_defect,
    vdim_rr,
)
from .interp import effective_dim
from .pipeline import (
    RunConfig,
    render_text,
    report_to_json,
    resolve_config,
    run_counterexample,
)
from .quadricmap import format_quadric_system, parse_quadric_system, restrict_to_quadric, to_planar
from .syscore import edim_expected, format_system, parse_system, vdim

__all__ = ["cli_main"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    # the Monte Carlo commands, special and counterexample, also take these
    mc = argparse.ArgumentParser(add_help=False, parents=[common])
    mc.add_argument("--prime", type=int, help="odd prime modulus (> every degree in the run)")
    mc.add_argument("--trials", type=int, help="Monte Carlo trials per rank computation")
    mc.add_argument("--seed", type=int, help="64-bit seed; echoed in reports")
    mc.add_argument("--config", metavar="FILE", help="key = value config file")

    p = argparse.ArgumentParser(
        prog="fatpoints",
        description="Dimensions of linear systems with fat base points, "
        "intersection theory on blow-ups, and the quadric-splitting counterexample.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, handler, summary: str, parent=common) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[parent], help=summary)
        sp.set_defaults(handler=handler)
        return sp

    sp = command("vdim", _vdim, "virtual dimension of a system")
    sp.add_argument("system", help="system literal, e.g. L2(12,3^2,4^8)")
    command("edim", _edim, "expected dimension max(vdim, -1)").add_argument("system")
    command("special", _special, "Monte Carlo speciality verdict", mc).add_argument("system")
    sp = command("restrict", _restrict, "restrict a P^3 system to the quadric through its points")
    sp.add_argument("system")
    sp = command("toplanar", _toplanar, "planar image of a quadric system, e.g. (9,9;6;4^8)")
    sp.add_argument("quadric_system")

    sp = command("chow", _chow, "intersection product of divisor classes")
    sp.add_argument("mode", choices=["pair", "triple"], help="pair on blown-up P^2, triple on blown-up P^3")
    sp.add_argument("classes", nargs="+", help="class literals, e.g. [2;1,1^8]")

    sp = command("rr", _rr, "Euler characteristic and virtual dimension of a P^3 class")
    sp.add_argument("cls", metavar="class")
    sp = command("defect", _defect, "speciality defect of a splitting F + M on blown-up P^3")
    sp.add_argument("fixed", metavar="F")
    sp.add_argument("mobile", metavar="M")

    sp = command(
        "negcurves", _negcurves, "enumerate (-1)-classes in a box and pair them against a class"
    )
    sp.add_argument("--bounds", required=True, metavar="D,M12,TAIL", help="max degree, max first-two multiplicities, max tail multiplicity")
    sp.add_argument("--full-tail", action="store_true", help="search every tail tuple instead of constant tails only")
    sp.add_argument("--against", required=True, metavar="CLASS")
    sp.add_argument("--threshold", type=int, default=-1, help="flag hits with pairing <= threshold (default -1)")

    sp = command("genus", _genus, "arithmetic genus of a planar class")
    sp.add_argument("cls", metavar="class")
    sp = command(
        "cremona-reduce",
        _cremona_reduce,
        "standard form of a planar class under quadratic transformations",
    )
    sp.add_argument("cls", metavar="class")

    sub.add_parser("counterexample", parents=[mc], help="run the full nine-check verification")
    return p


def _mc_config(args) -> RunConfig:
    cli_vals = {
        "prime": args.prime,
        "trials": args.trials,
        "seed": args.seed,
        "output": "json" if args.json else None,
    }
    return resolve_config(cli_vals, config_path=args.config)


def _vdim(args):
    syst = parse_system(args.system)
    v = vdim(syst)
    return {"system": format_system(syst), "vdim": v}, str(v)


def _edim(args):
    syst = parse_system(args.system)
    e = edim_expected(syst)
    return {"system": format_system(syst), "edim": e}, str(e)


def _special(args):
    cfg = _mc_config(args)
    args.json = cfg.output == "json"  # a config file may ask for JSON
    rep = effective_dim(
        parse_system(args.system), trials=cfg.trials, seed=cfg.seed, prime=cfg.prime
    )
    obj = {
        "system": format_system(rep.system),
        "special": rep.special,
        "vdim": rep.vdim,
        "edim": rep.edim_actual,
        "expected_edim": rep.edim_expected,
        "h0": rep.h0,
        "rank": rep.rank,
        "monomials": rep.monomials,
        "conditions": rep.conditions,
        "analytic": rep.analytic,
        "trials": rep.trials,
        "seed": rep.seed,
        "prime": rep.prime,
    }
    return obj, f"special: {str(rep.special).lower()} (vdim {rep.vdim}, edim {rep.edim_actual})"


def _restrict(args):
    syst = parse_system(args.system)
    qs = format_quadric_system(restrict_to_quadric(syst))
    return {"system": format_system(syst), "quadric_system": qs}, qs


def _toplanar(args):
    qs = parse_quadric_system(args.quadric_system)
    img = to_planar(qs)
    obj = {
        "quadric_system": format_quadric_system(qs),
        "planar": format_system(img),
        "effective_multiplicities": not img.has_negative,
    }
    note = "  (negative multiplicity: not effective as written)" if img.has_negative else ""
    return obj, format_system(img) + note


def _chow(args):
    ambient = 2 if args.mode == "pair" else 3  # also the number of classes
    if len(args.classes) != ambient:
        raise ValueError(f"chow {args.mode} needs exactly {ambient} classes, got {len(args.classes)}")
    classes = [parse_class(t, ambient) for t in args.classes]
    product = intersect2(*classes) if ambient == 2 else intersect3(*classes)
    obj = {"mode": args.mode, "classes": [format_class(c) for c in classes], "product": product}
    return obj, str(product)


def _rr(args):
    cls = parse_class(args.cls, 3)
    chi, v = chi_rr(cls), vdim_rr(cls)
    return {"class": format_class(cls), "chi": chi, "vdim": v}, f"chi: {chi}\nvdim: {v}"


def _defect(args):
    fixed = parse_class(args.fixed, 3)
    mobile = parse_class(args.mobile, 3)
    d = speciality_defect(fixed, mobile)
    return {"fixed": format_class(fixed), "mobile": format_class(mobile), "defect": d}, str(d)


def _negcurves(args):
    parts = args.bounds.split(",")
    if len(parts) != 3:
        raise ValueError(f"--bounds wants D,M12,TAIL, got {args.bounds!r}")
    try:
        d_max, m12_max, tail_max = (int(x) for x in parts)
    except ValueError:
        raise ValueError(f"--bounds entries must be integers, got {args.bounds!r}")
    bounds = EnumBounds(d_max, m12_max, tail_max, symmetric_tail=not args.full_tail)
    against = parse_class(args.against, 2)
    hits = enumerate_neg_curves(bounds, against, args.threshold)
    obj = {
        "bounds": dataclasses.asdict(bounds),
        "against": format_class(against),
        "threshold": args.threshold,
        "hits": [
            {"class": format_class(h.cls), "pairing": h.pairing, "flagged": h.flagged}
            for h in hits
        ],
    }
    lines = [
        f"{format_class(h.cls)}  pairing {h.pairing}" + ("  FLAGGED" if h.flagged else "")
        for h in hits
    ] or ["no (-1)-classes in bounds"]
    return obj, "\n".join(lines)


def _genus(args):
    cls = parse_class(args.cls, 2)
    g = genus_planar(cls)
    return {"class": format_class(cls), "genus": g}, str(g)


def _cremona_reduce(args):
    cls = parse_class(args.cls, 2)
    std, strips = cremona_reduce(cls)
    stripped = [format_class(s) for s in strips]
    obj = {"class": format_class(cls), "standard": format_class(std), "stripped": stripped}
    return obj, "\n".join([f"standard: {format_class(std)}"] + [f"stripped: {s}" for s in stripped])


def _dispatch(args) -> int:
    if args.command == "counterexample":
        cfg = _mc_config(args)
        report = run_counterexample(cfg)
        sys.stdout.write(report_to_json(report) if cfg.output == "json" else render_text(report))
        return 0 if report.verdict else 1
    obj, text = args.handler(args)
    if args.json:
        text = json.dumps({"command": args.command, **obj}, indent=2, sort_keys=True)
    print(text)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a condition matrix too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
