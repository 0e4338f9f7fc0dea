"""End-to-end verification that L3(9,6,4^8) is special because a quadric
splits off: nine frozen checks over one shared random point configuration,
rendered as a deterministic text or JSON report.

Expected values are hard-coded constants; nothing on the expected side is
recomputed from the observed side, so a regression in any module flips a
check to fail instead of silently shifting the baseline.
"""

from __future__ import annotations

import json
import operator
import os
import secrets
from dataclasses import dataclass, replace

from .blowup import (
    DivisorClass,
    EnumBounds,
    canonical,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    intersect3,
    speciality_defect,
)
from .gfprime import DEFAULT_PRIME, PrimeField
from .interp import OnQuadric, _peel, effective_dim
from .quadricmap import restrict_to_quadric, to_planar
from .syscore import FatPointSystem, format_system, parse_system, vdim

__all__ = [
    "RunConfig",
    "CheckResult",
    "CounterexampleReport",
    "run_counterexample",
    "render_text",
    "report_to_json",
]


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every randomized check in one verification run."""

    prime: int = DEFAULT_PRIME
    trials: int = 3
    seed: int | None = None
    output: str = "text"

    def __post_init__(self):
        # operator.index refuses a float instead of truncating it
        for name in ("prime", "trials", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        PrimeField(self.prime)  # validates primality and size
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.output not in ("text", "json"):
            raise ValueError(f"output must be 'text' or 'json', got {self.output!r}")


@dataclass(frozen=True)
class CheckResult:
    """One named comparison; `note` carries diagnostic context on failure."""

    check_id: str
    description: str
    expected: object
    observed: object
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class CounterexampleReport:
    config: RunConfig
    checks: tuple[CheckResult, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)


_RANK_FAIL_NOTE = (
    "random-point rank can only err low (h0 reported too high); "
    "a miss here indicates degenerate sampling, not a refuted claim - rerun with a fresh seed"
)

_EIGHT_SYSTEMS = (
    ("L3(9,6,4^8)", 3),
    ("L3(7,5,3^8)", 4),
    ("L3(5,4,2^8)", 3),
    ("L3(3,3,1^8)", 1),
    ("L3(4,2^9)", -2),
    ("L2(12,3^2,4^8)", -2),
    ("L2(9,2^2,3^8)", 0),
    ("L2(6,1^2,2^8)", 1),
)


def run_counterexample(cfg: RunConfig) -> CounterexampleReport:
    """Run the nine checks of the construction and collect a report.

    All Monte Carlo checks share (seed, trials, prime), which makes the
    nine-point prefix of every draw identical across systems; that is
    what entitles the fixed-component comparisons to subtract h0 values
    obtained from different matrices.  Every one of the nine ranks is
    certified by one rank at interp._CERT_PRIME, so every h0 is exact and
    the proof rests on no Monte Carlo bound; at a prime not above
    _CERT_PRIME, a trial's rank that reaches its ceiling is just as exact.
    In check 3 the residual L3(7,5,3^8) reaches its ceiling with h0 5,
    which makes 5 a floor for the special L3(9,6,4^8) (the quadric has
    more monomials than its nine conditions); its rank 215 = 220 - 5 is
    then exact too, and equal h0 proves the quadric fixed (see
    `interp._peel`).  The contact-point peels of checks 4 and 5 are full
    rank on draws constrained to the quadric, which are certified like
    free ones.  Each distinct system is ranked once, and later checks
    reuse its report.
    """
    seed = cfg.seed if cfg.seed is not None else secrets.randbits(64)
    cfg = replace(cfg, seed=seed)
    mc = dict(trials=cfg.trials, seed=seed, prime=cfg.prime)
    checks: list[CheckResult] = []

    def add(check_id: str, description: str, expected, observed, rank_based: bool):
        passed = expected == observed
        note = _RANK_FAIL_NOTE if rank_based and not passed else None
        checks.append(CheckResult(check_id, description, expected, observed, passed, note))

    # 1. virtual dimensions straight from the counting formula
    add(
        "virtual-dimensions",
        "virtual dimensions of the eight systems in the construction",
        {lit: v for lit, v in _EIGHT_SYSTEMS},
        {lit: vdim(parse_system(lit)) for lit, _ in _EIGHT_SYSTEMS},
        rank_based=False,
    )

    # 2. the degree-12 planar image is empty: conditions independent, full rank
    rep12 = effective_dim(parse_system("L2(12,3^2,4^8)"), **mc)
    add(
        "planar-image-empty",
        "the degree-12 planar image imposes 91 independent conditions (empty system)",
        {"rank": 91, "h0": 0},
        {"rank": rep12.rank, "h0": rep12.h0},
        rank_based=True,
    )

    # 3. the quadric through the nine points is fixed, and the system is special;
    # checks 3-5 read a fixed component from the two h0 of `_peel`, the rule
    # of `interp.fixed_component_test`
    rep9, rep7 = _peel(parse_system("L3(9,6,4^8)"), parse_system("L3(2,1,1^8)"), **mc)
    add(
        "quadric-fixed-component",
        "the unique quadric through the nine points divides every member, "
        "and the effective dimension exceeds the expected one",
        {"quadric_fixed": True, "vdim": 3, "edim": 4, "special": True},
        {
            "quadric_fixed": rep9.h0 == rep7.h0,
            "vdim": rep9.vdim,
            "edim": rep9.edim_actual,
            "special": rep9.special,
        },
        rank_based=True,
    )

    # 4. first peel with a contact point: add one simple base point on the
    # quadric; the quadric (now through ten points) still splits off and the
    # residual matches the general-position count of L3(5,4,2^8)
    on_q = OnQuadric(through=tuple(range(9)))
    rep_ext7, rep_res7 = _peel(
        FatPointSystem(3, 7, (5,) + (3,) * 8 + (1,)),
        FatPointSystem(3, 2, (1,) * 10),
        (None,) * 9 + (on_q,),
        **mc,
    )
    rep5 = effective_dim(parse_system("L3(5,4,2^8)"), **mc)
    add(
        "first-contact-peel",
        "degree 7 with one extra point on the quadric: quadric fixed, "
        "residual h0 agrees with the general-position count",
        {"quadric_fixed": True, "residual_h0": 4, "general_h0": 4},
        {
            "quadric_fixed": rep_ext7.h0 == rep_res7.h0,
            "residual_h0": rep_res7.h0,
            "general_h0": rep5.h0,
        },
        rank_based=True,
    )

    # 5. second peel with two contact points on the same quadric
    rep_ext5, rep_res5 = _peel(
        FatPointSystem(3, 5, (4,) + (2,) * 8 + (1, 1)),
        FatPointSystem(3, 2, (1,) * 11),
        (None,) * 9 + (on_q, on_q),
        **mc,
    )
    rep3 = effective_dim(parse_system("L3(3,3,1^8)"), **mc)
    add(
        "second-contact-peel",
        "degree 5 with two extra points on the quadric: quadric fixed, "
        "residual h0 agrees with the general-position count",
        {"quadric_fixed": True, "residual_h0": 2, "general_h0": 2},
        {
            "quadric_fixed": rep_ext5.h0 == rep_res5.h0,
            "residual_h0": rep_res5.h0,
            "general_h0": rep3.h0,
        },
        rank_based=True,
    )

    # 6. the residual chain L3(7,5,3^8), L3(5,4,2^8), L3(3,3,1^8) is
    # non-special with dimensions 4, 3, 1; checks 3-5 ranked all three
    add(
        "residual-dimension-chain",
        "effective dimensions of the three residual systems",
        [4, 3, 1],
        [rep.edim_actual for rep in (rep7, rep5, rep3)],
        rank_based=True,
    )

    # 7. restriction to the quadric, read as planar systems
    images = [
        format_system(to_planar(restrict_to_quadric(parse_system(lit))))
        for lit in ("L3(9,6,4^8)", "L3(7,5,3^8)", "L3(5,4,2^8)")
    ]
    add(
        "quadric-restriction-images",
        "planar images of the restrictions to the quadric, and the genus "
        "of the middle image class",
        {
            "images": ["L2(12,3^2,4^8)", "L2(9,2^2,3^8)", "L2(6,1^2,2^8)"],
            "genus": 2,
        },
        {
            "images": images,
            "genus": genus_planar(DivisorClass(2, 9, (2, 2) + (3,) * 8)),
        },
        rank_based=False,
    )

    # 8. (-1)-class searches around the two planar images
    hits_a2 = enumerate_neg_curves(
        EnumBounds(d_max=6, m12_max=1, tail_max=2),
        DivisorClass(2, 12, (3, 3) + (4,) * 8),
        threshold=-2,
    )
    hits_a3 = enumerate_neg_curves(
        EnumBounds(d_max=9, m12_max=2, tail_max=3),
        DivisorClass(2, 9, (2, 2) + (3,) * 8),
        threshold=-2,
    )
    add(
        "minus-one-class-search",
        "the box searches find exactly the line through the two contact "
        "points, meeting both image classes non-negatively",
        {
            "a2_classes": ["[1;1^2,0^8]"],
            "a2_pairings": [6],
            "a2_flagged": [],
            "a3_classes": ["[1;1^2,0^8]"],
            "a3_pairings": [5],
            "a3_flagged": [],
        },
        {
            "a2_classes": [format_class(h.cls) for h in hits_a2],
            "a2_pairings": [h.pairing for h in hits_a2],
            "a2_flagged": [format_class(h.cls) for h in hits_a2 if h.flagged],
            "a3_classes": [format_class(h.cls) for h in hits_a3],
            "a3_pairings": [h.pairing for h in hits_a3],
            "a3_flagged": [format_class(h.cls) for h in hits_a3 if h.flagged],
        },
        rank_based=False,
    )

    # 9. intersection-theoretic speciality defects on blown-up P^3
    quad_cls = DivisorClass(3, 2, (1,) + (1,) * 8)
    mobile_cls = DivisorClass(3, 7, (5,) + (3,) * 8)
    total = quad_cls + mobile_cls
    double_quad = DivisorClass(3, 4, (2,) * 9)
    zero = DivisorClass(3, 0, (0,) * 9)
    k = canonical(3, 9)
    add(
        "speciality-defects",
        "defect of the quadric splitting is -1 (triple product -2); the "
        "double-quadric system has defect -2 with vanishing cross term",
        {
            "triple_product": -2,
            "defect": -1,
            "double_quadric_defect": -2,
            "double_quadric_cross": 0,
        },
        {
            "triple_product": intersect3(quad_cls, mobile_cls, total - k),
            "defect": speciality_defect(quad_cls, mobile_cls),
            "double_quadric_defect": speciality_defect(double_quad, zero),
            "double_quadric_cross": intersect3(double_quad, zero, double_quad - k) // 2,
        },
        rank_based=False,
    )

    return CounterexampleReport(config=cfg, checks=tuple(checks))


def _dump_value(v) -> str:
    return json.dumps(v, sort_keys=True)


def render_text(report: CounterexampleReport) -> str:
    """Human-oriented rendering with the same check set as the JSON form."""
    cfg = report.config
    lines = [
        f"counterexample verification  prime={cfg.prime} trials={cfg.trials} seed={cfg.seed}",
    ]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.check_id}: {c.description}")
        lines.append(f"       expected: {_dump_value(c.expected)}")
        lines.append(f"       observed: {_dump_value(c.observed)}")
        if c.note is not None:
            lines.append(f"       note: {c.note}")
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    return "\n".join(lines) + "\n"


def report_to_json(report: CounterexampleReport) -> str:
    """Deterministic JSON: identical config and outcomes give identical bytes."""
    cfg = report.config
    checks = []
    for c in report.checks:
        entry = {
            "id": c.check_id,
            "description": c.description,
            "expected": c.expected,
            "observed": c.observed,
            "pass": c.passed,
        }
        if c.note is not None:
            entry["note"] = c.note
        checks.append(entry)
    obj = {
        "config": {
            "prime": cfg.prime,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "output": cfg.output,
        },
        "checks": checks,
        "verdict": "pass" if report.verdict else "fail",
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_config_file(path: str) -> dict:
    """Line-based `key = value` config; '#' comments and blank lines allowed.

    Recognized keys: prime, trials, seed (integers) and output (text|json).
    """
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = key.strip(), value.strip()
            if key in ("prime", "trials", "seed"):
                try:
                    out[key] = int(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} must be an integer, got {value!r}")
            elif key == "output":
                if value not in ("text", "json"):
                    raise ValueError(f"{path}:{lineno}: output must be text or json, got {value!r}")
                out[key] = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return out


def resolve_config(cli_values: dict, config_path: str | None = None, env=None) -> RunConfig:
    """Merge the three configuration sources into a RunConfig.

    Precedence, highest first: CLI flags, config file, the FATPOINTS_SEED
    environment variable (seed only), built-in defaults.
    """
    env = os.environ if env is None else env
    values: dict = {}
    raw = env.get("FATPOINTS_SEED")
    if raw is not None:
        try:
            values["seed"] = int(raw)
        except ValueError:
            raise ValueError(f"FATPOINTS_SEED must be an integer, got {raw!r}")
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update({k: v for k, v in cli_values.items() if v is not None})
    return RunConfig(**values)
