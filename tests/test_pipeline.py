"""End-to-end verification pipeline: checks, reports, config resolution."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from fatpoints import interp, pipeline
from fatpoints.gfprime import DEFAULT_PRIME
from fatpoints.interp import OnQuadric, effective_dim, fixed_component_test
from fatpoints.pipeline import (
    CheckResult,
    CounterexampleReport,
    RunConfig,
    parse_config_file,
    render_text,
    report_to_json,
    resolve_config,
    run_counterexample,
)
from fatpoints.syscore import FatPointSystem, parse_system, residual

EXPECTED_CHECK_IDS = [
    "virtual-dimensions",
    "planar-image-empty",
    "quadric-fixed-component",
    "first-contact-peel",
    "second-contact-peel",
    "residual-dimension-chain",
    "quadric-restriction-images",
    "minus-one-class-search",
    "speciality-defects",
]


def test_run_config_validation():
    assert RunConfig().prime == DEFAULT_PRIME
    with pytest.raises(ValueError):
        RunConfig(prime=91)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(output="xml")
    with pytest.raises(ValueError):
        RunConfig(seed=2**64)


def test_all_checks_pass_at_fixed_seed():
    report = run_counterexample(RunConfig(seed=2024))
    assert [c.check_id for c in report.checks] == EXPECTED_CHECK_IDS
    for check in report.checks:
        assert check.passed, check.check_id
        assert check.expected == check.observed
        assert check.note is None
    assert report.verdict is True


def test_report_json_is_deterministic():
    a = run_counterexample(RunConfig(seed=99))
    b = run_counterexample(RunConfig(seed=99))
    ja = report_to_json(a)
    jb = report_to_json(b)
    assert ja == jb
    assert ja.endswith("\n")
    payload = json.loads(ja)
    assert [c["id"] for c in payload["checks"]] == EXPECTED_CHECK_IDS
    assert payload["verdict"] == "pass"
    assert payload["config"]["seed"] == 99
    assert payload["config"]["prime"] == DEFAULT_PRIME


def test_pipeline_passes_at_a_small_prime():
    report = run_counterexample(RunConfig(prime=101, trials=4, seed=7))
    assert report.verdict is True


def test_each_system_is_ranked_once(monkeypatch):
    keys = []

    def counted(rank):
        def call(sys, *, constraints=None, **mc):
            keys.append((sys, constraints))
            return rank(sys, constraints=constraints, **mc)

        return call

    # both names, so a rank that bypasses the pipeline's global is counted too
    monkeypatch.setattr(pipeline, "effective_dim", counted(pipeline.effective_dim))
    monkeypatch.setattr(interp, "effective_dim", counted(interp.effective_dim))
    assert run_counterexample(RunConfig(seed=7)).verdict is True
    assert len(keys) == 9
    assert len(set(keys)) == 9


_ON_Q = OnQuadric(through=tuple(range(9)))
# (check id, system, fixed quadric, constraints) of the three peels
_PEELS = [
    (
        "quadric-fixed-component",
        parse_system("L3(9,6,4^8)"),
        parse_system("L3(2,1,1^8)"),
        None,
    ),
    (
        "first-contact-peel",
        FatPointSystem(3, 7, (5,) + (3,) * 8 + (1,)),
        FatPointSystem(3, 2, (1,) * 10),
        (None,) * 9 + (_ON_Q,),
    ),
    (
        "second-contact-peel",
        FatPointSystem(3, 5, (4,) + (2,) * 8 + (1, 1)),
        FatPointSystem(3, 2, (1,) * 11),
        (None,) * 9 + (_ON_Q, _ON_Q),
    ),
]


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_peels_agree_with_the_public_oracle(seed):
    """The pipeline reads a fixed component from the h0 of a peel pair;
    that must stay the verdict of `fixed_component_test` on the same draws."""
    mc = dict(trials=3, seed=seed, prime=DEFAULT_PRIME)
    report = run_counterexample(RunConfig(**mc))
    observed = {c.check_id: c.observed for c in report.checks}
    for check_id, sys, fixed, constraints in _PEELS:
        got = observed[check_id]
        assert got["quadric_fixed"] == fixed_component_test(
            sys, fixed, constraints=constraints, **mc
        )
        if "residual_h0" in got:
            rest = effective_dim(residual(sys, fixed), constraints=constraints, **mc)
            assert got["residual_h0"] == rest.h0
    assert observed["residual-dimension-chain"] == [
        effective_dim(parse_system(lit), **mc).edim_actual
        for lit in ("L3(7,5,3^8)", "L3(5,4,2^8)", "L3(3,3,1^8)")
    ]


def test_text_rendering_covers_every_check():
    report = run_counterexample(RunConfig(seed=5))
    text = render_text(report)
    for check in report.checks:
        assert check.check_id in text
        assert check.description in text
    assert text.count("[PASS]") == len(report.checks)
    assert "verdict: pass" in text


def test_failed_checks_flip_the_verdict_and_render():
    report = run_counterexample(RunConfig(seed=5))
    broken = dataclasses.replace(
        report.checks[0], passed=False, note="sampler degeneracy suspected"
    )
    doctored = CounterexampleReport(config=report.config, checks=(broken,) + report.checks[1:])
    assert doctored.verdict is False
    text = render_text(doctored)
    assert "[FAIL]" in text
    assert "sampler degeneracy" in text
    payload = json.loads(report_to_json(doctored))
    assert payload["verdict"] == "fail"
    assert payload["checks"][0]["note"] == "sampler degeneracy suspected"
    assert "note" not in payload["checks"][1]


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# verification settings\n"
        "prime = 1048573\n"
        "\n"
        "trials = 5\n"
        "seed = 42\n"
        "output = json\n"
    )
    values = parse_config_file(path)
    assert values == {"prime": 1048573, "trials": 5, "seed": 42, "output": "json"}


def test_parse_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("primes = 7\n")
    with pytest.raises(ValueError) as info:
        parse_config_file(bad_key)
    assert "a.cfg:1" in str(info.value)

    bad_int = tmp_path / "b.cfg"
    bad_int.write_text("trials = many\n")
    with pytest.raises(ValueError):
        parse_config_file(bad_int)

    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config_file(bad_line)


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trials = 5\nseed = 42\n")
    env = {"FATPOINTS_SEED": "1000"}

    # environment only touches the seed
    cfg = resolve_config({}, env=env)
    assert cfg.seed == 1000
    assert cfg.trials == 3

    # config file beats the environment
    cfg = resolve_config({}, config_path=path, env=env)
    assert cfg.seed == 42
    assert cfg.trials == 5

    # explicit flags beat the config file
    cfg = resolve_config({"seed": 7, "trials": 2}, config_path=path, env=env)
    assert cfg.seed == 7
    assert cfg.trials == 2


def test_resolve_config_rejects_bad_environment_seed():
    with pytest.raises(ValueError):
        resolve_config({}, env={"FATPOINTS_SEED": "soon"})


def test_check_result_fields():
    c = CheckResult("x", "desc", 1, 1, True)
    assert c.note is None
    assert c.passed


def test_run_config_integers_are_not_truncated():
    for field in ("prime", "trials", "seed"):
        with pytest.raises(TypeError):
            RunConfig(**{field: 2.5})
    cfg = RunConfig(prime=np.int64(1048573), trials=np.int64(2), seed=np.uint64(7))
    assert cfg == RunConfig(prime=1048573, trials=2, seed=7)
    assert all(type(x) is int for x in (cfg.prime, cfg.trials, cfg.seed))
