"""Command-line interface: output formats, exit codes, configuration."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fatpoints import cli, interp
from fatpoints.cli import cli_main
from fatpoints.gfprime import PrimeFieldMatrix
from fatpoints.interp import VirtualBoundError, effective_dim
from fatpoints.pipeline import RunConfig, run_counterexample
from fatpoints.syscore import parse_system

ROOT = Path(__file__).resolve().parent.parent


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli_main([])
    assert info.value.code == 2


# one valid argument list per subcommand without Monte Carlo settings
PLAIN_COMMANDS = {
    "vdim": ["L2(1)"],
    "edim": ["L2(1)"],
    "restrict": ["L3(9,6,4^8)"],
    "toplanar": ["(9,9;6;4^8)"],
    "chow": ["pair", "[1;1]", "[1;1]"],
    "rr": ["[7;5,3^8]"],
    "defect": ["[2;1^9]", "[7;5,3^8]"],
    "negcurves": ["--bounds", "1,1,0", "--against", "[2;2^2]"],
    "genus": ["[9;2^2,3^8]"],
    "cremona-reduce": ["[3;1^9]"],
}
MC_FLAGS = [["--prime", "101"], ["--trials", "2"], ["--seed", "3"], ["--config", "run.cfg"]]


@pytest.mark.parametrize("command", list(PLAIN_COMMANDS))
@pytest.mark.parametrize("flag", MC_FLAGS, ids=lambda f: f[0])
def test_monte_carlo_flags_are_usage_errors_elsewhere(command, flag, capsys):
    assert cli_main([command] + PLAIN_COMMANDS[command] + ["--json"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli_main([command] + PLAIN_COMMANDS[command] + flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_vdim_rejects_a_seed():
    with pytest.raises(SystemExit) as info:
        cli_main(["vdim", "--seed", "3", "L2(1)"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [["special", "L2(2,1)"], ["counterexample"]])
def test_monte_carlo_commands_take_every_flag(command):
    flags = [x for flag in MC_FLAGS for x in flag] + ["--json"]
    args = cli._build_parser().parse_args(command + flags)
    assert (args.prime, args.trials, args.seed, args.config, args.json) == (
        101, 2, 3, "run.cfg", True
    )


def test_special_runs_with_every_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("trials = 5\n")
    argv = ["special", "L2(2,1)", "--prime", "101", "--trials", "1", "--seed", "3"]
    assert cli_main(argv + ["--config", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["prime"], payload["trials"], payload["seed"]) == (101, 1, 3)


def test_special_text_output(capsys):
    code = cli_main(["special", "L3(9,6,4^8)", "--seed", "3", "--trials", "2"])
    assert code == 0
    assert capsys.readouterr().out == "special: true (vdim 3, edim 4)\n"


def test_special_json_output(capsys):
    code = cli_main(["special", "L2(6,1^2,2^8)", "--seed", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["special"] is False
    assert payload["h0"] == 2
    assert payload["seed"] == 3
    assert payload["command"] == "special"


def test_toplanar_flags_negative_multiplicities(capsys):
    assert cli_main(["toplanar", "(5,2;4;1,1)"]) == 0
    out = capsys.readouterr().out
    assert "negative multiplicity" in out
    assert cli_main(["toplanar", "(5,2;4;1,1)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["effective_multiplicities"] is False


def test_chow_arity_is_a_usage_error(capsys):
    code = cli_main(["chow", "pair", "[1;1]", "[1;1]", "[1;1]"])
    assert code == 2
    assert "exactly 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["chow", "pair", "[1;1]", "[1;1,1]"], "point counts differ: 1 vs 2"),
        (["chow", "triple", "[1;1]", "[1;1]", "[1;1,1]"], "point counts differ: 1 vs 2"),
        (["defect", "[2;1^9]", "[7;5,3^7]"], "point counts differ: 9 vs 8"),
        (["defect", "[2;1^8]", "[7;5,3^8]"], "point counts differ: 8 vs 9"),
    ],
)
def test_mismatched_point_counts_are_usage_errors(argv, err, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_parse_errors_carry_byte_offsets(capsys):
    code = cli_main(["vdim", "L2(3,,1)"])
    assert code == 2
    err = capsys.readouterr().err
    assert "byte" in err
    assert "5" in err


def test_negcurves(capsys):
    code = cli_main(
        ["negcurves", "--bounds", "6,1,2", "--against", "[12;3^2,4^8]"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[1;1^2,0^8]" in out
    assert "pairing 6" in out
    assert "FLAGGED" not in out
    code = cli_main(["negcurves", "--bounds", "1,1,0", "--against", "[2;2^2]"])
    assert code == 0
    assert "FLAGGED" in capsys.readouterr().out


def test_negcurves_bounds_validation(capsys):
    assert cli_main(["negcurves", "--bounds", "6,1", "--against", "[2;1,1]"]) == 2
    assert "D,M12,TAIL" in capsys.readouterr().err
    assert cli_main(["negcurves", "--bounds", "a,b,c", "--against", "[2;1,1]"]) == 2


# The exact stdout of every reporting command, as text and under --json:
# (argv, text, json).  Literal strings, so a change shows as a diff.
PINNED_OUTPUTS = [
    (
        ["vdim", "L3(9,6,4^8)"],
        "3\n",
        """\
{
  "command": "vdim",
  "system": "L3(9,6,4^8)",
  "vdim": 3
}
""",
    ),
    (
        ["vdim", "L2(12,3^2,4^8)"],
        "-2\n",
        """\
{
  "command": "vdim",
  "system": "L2(12,3^2,4^8)",
  "vdim": -2
}
""",
    ),
    (
        ["edim", "L3(4,2^9)"],
        "-1\n",
        """\
{
  "command": "edim",
  "edim": -1,
  "system": "L3(4,2^9)"
}
""",
    ),
    (
        ["special", "L2(6,1^2,2^8)", "--seed", "3", "--trials", "1"],
        "special: false (vdim 1, edim 1)\n",
        """\
{
  "analytic": false,
  "command": "special",
  "conditions": 26,
  "edim": 1,
  "expected_edim": 1,
  "h0": 2,
  "monomials": 28,
  "prime": 2305843009213693951,
  "rank": 26,
  "seed": 3,
  "special": false,
  "system": "L2(6,1^2,2^8)",
  "trials": 1,
  "vdim": 1
}
""",
    ),
    (
        ["restrict", "L3(9,6,4^8)"],
        "(9,9;6;4^8)\n",
        """\
{
  "command": "restrict",
  "quadric_system": "(9,9;6;4^8)",
  "system": "L3(9,6,4^8)"
}
""",
    ),
    (
        ["toplanar", "(9,9;6;4^8)"],
        "L2(12,3^2,4^8)\n",
        """\
{
  "command": "toplanar",
  "effective_multiplicities": true,
  "planar": "L2(12,3^2,4^8)",
  "quadric_system": "(9,9;6;4^8)"
}
""",
    ),
    (
        ["toplanar", "(5,2;4;1,1)"],
        "L2(3,-2,1^3)  (negative multiplicity: not effective as written)\n",
        """\
{
  "command": "toplanar",
  "effective_multiplicities": false,
  "planar": "L2(3,-2,1^3)",
  "quadric_system": "(5,2;4;1^2)"
}
""",
    ),
    (
        ["chow", "pair", "[12;3^2,4^8]", "[12;3^2,4^8]"],
        "-2\n",
        """\
{
  "classes": [
    "[12;3^2,4^8]",
    "[12;3^2,4^8]"
  ],
  "command": "chow",
  "mode": "pair",
  "product": -2
}
""",
    ),
    (
        ["chow", "triple", "[2;1^9]", "[7;5,3^8]", "[13;8,6^8]"],
        "-2\n",
        """\
{
  "classes": [
    "[2;1^9]",
    "[7;5,3^8]",
    "[13;8,6^8]"
  ],
  "command": "chow",
  "mode": "triple",
  "product": -2
}
""",
    ),
    (
        ["chow", "triple", "[9;6,4^8]", "[9;6,4^8]", "[9;6,4^8]"],
        "1\n",
        """\
{
  "classes": [
    "[9;6,4^8]",
    "[9;6,4^8]",
    "[9;6,4^8]"
  ],
  "command": "chow",
  "mode": "triple",
  "product": 1
}
""",
    ),
    (
        ["rr", "[7;5,3^8]"],
        """\
chi: 5
vdim: 4
""",
        """\
{
  "chi": 5,
  "class": "[7;5,3^8]",
  "command": "rr",
  "vdim": 4
}
""",
    ),
    (
        ["defect", "[2;1^9]", "[7;5,3^8]"],
        "-1\n",
        """\
{
  "command": "defect",
  "defect": -1,
  "fixed": "[2;1^9]",
  "mobile": "[7;5,3^8]"
}
""",
    ),
    (
        ["defect", "[4;2^9]", "[0;0^9]"],
        "-2\n",
        """\
{
  "command": "defect",
  "defect": -2,
  "fixed": "[4;2^9]",
  "mobile": "[0;0^9]"
}
""",
    ),
    (
        ["negcurves", "--bounds", "6,1,2", "--against", "[12;3^2,4^8]"],
        "[1;1^2,0^8]  pairing 6\n",
        """\
{
  "against": "[12;3^2,4^8]",
  "bounds": {
    "d_max": 6,
    "m12_max": 1,
    "symmetric_tail": true,
    "tail_max": 2
  },
  "command": "negcurves",
  "hits": [
    {
      "class": "[1;1^2,0^8]",
      "flagged": false,
      "pairing": 6
    }
  ],
  "threshold": -1
}
""",
    ),
    (
        ["negcurves", "--bounds", "2,1,1", "--full-tail", "--threshold", "0", "--against", "[3;2,1^2]"],
        """\
[1;0,1^2]  pairing 1
[1;1,0,1]  pairing 0  FLAGGED
[1;1^2,0]  pairing 0  FLAGGED
""",
        """\
{
  "against": "[3;2,1^2]",
  "bounds": {
    "d_max": 2,
    "m12_max": 1,
    "symmetric_tail": false,
    "tail_max": 1
  },
  "command": "negcurves",
  "hits": [
    {
      "class": "[1;0,1^2]",
      "flagged": false,
      "pairing": 1
    },
    {
      "class": "[1;1,0,1]",
      "flagged": true,
      "pairing": 0
    },
    {
      "class": "[1;1^2,0]",
      "flagged": true,
      "pairing": 0
    }
  ],
  "threshold": 0
}
""",
    ),
    (
        ["negcurves", "--bounds", "0,0,0", "--against", "[2;2^2]"],
        "no (-1)-classes in bounds\n",
        """\
{
  "against": "[2;2^2]",
  "bounds": {
    "d_max": 0,
    "m12_max": 0,
    "symmetric_tail": true,
    "tail_max": 0
  },
  "command": "negcurves",
  "hits": [],
  "threshold": -1
}
""",
    ),
    (
        ["genus", "[9;2^2,3^8]"],
        "2\n",
        """\
{
  "class": "[9;2^2,3^8]",
  "command": "genus",
  "genus": 2
}
""",
    ),
    (
        ["cremona-reduce", "[2;2^2]"],
        """\
standard: [0;0^3]
stripped: [2;2^2,0]
""",
        """\
{
  "class": "[2;2^2]",
  "command": "cremona-reduce",
  "standard": "[0;0^3]",
  "stripped": [
    "[2;2^2,0]"
  ]
}
""",
    ),
    (
        ["cremona-reduce", "[3;1^9]"],
        "standard: [3;1^9]\n",
        """\
{
  "class": "[3;1^9]",
  "command": "cremona-reduce",
  "standard": "[3;1^9]",
  "stripped": []
}
""",
    ),
]


@pytest.mark.parametrize(
    "argv, text, as_json", PINNED_OUTPUTS, ids=[" ".join(case[0]) for case in PINNED_OUTPUTS]
)
def test_reporting_commands_print_pinned_bytes(argv, text, as_json, capsys):
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == text
    assert cli_main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == as_json


def test_counterexample_passes(capsys):
    code = cli_main(["counterexample", "--seed", "11", "--trials", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert out.count("[PASS]") == 9


def test_counterexample_json(capsys):
    code = cli_main(["counterexample", "--seed", "11", "--trials", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["config"]["seed"] == 11
    assert len(payload["checks"]) == 9


def test_counterexample_failure_exits_one(monkeypatch, capsys):
    real = run_counterexample(RunConfig(seed=1, trials=1))
    broken = dataclasses.replace(real.checks[0], passed=False)
    doctored = dataclasses.replace(real, checks=(broken,) + real.checks[1:])
    monkeypatch.setattr(cli, "run_counterexample", lambda cfg: doctored)
    code = cli_main(["counterexample", "--seed", "1"])
    assert code == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_rank_above_the_virtual_bound_exits_one(monkeypatch, capsys):
    """A rank the virtual dimension forbids is a typed error that the CLI
    reports with exit code 1, not a traceback."""
    monkeypatch.setattr(PrimeFieldMatrix, "rank", lambda self: self.cols + 1)
    code = cli_main(["special", "L3(4,2^9)", "--seed", "1", "--trials", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rank 36 exceeds the virtual bound")
    with pytest.raises(VirtualBoundError):
        effective_dim(parse_system("L3(4,2^9)"), trials=1, seed=1)


# sha256 of the --json output at the default prime and trials, recorded
# before effective_dim stopped its trials at the rank ceiling: L3(9,6,4^8)
# runs all three trials, L2(12,3^2,4^8) reaches its ceiling in the first.
JSON_SHA256 = {
    ("counterexample", 1): "0ae693c4486d8624a84e14f006bbca70e1f89b7dffdc6bd5ea40790777b75958",
    ("counterexample", 7): "3f1d9ccd331511fa0b06044332acfb5fafb125a0fa6ce050a40a46ea7a735a6d",
    ("counterexample", 2024): "3120211b298cc677c1690a8064feeb9888cc5af3fcaa70e3153c20ded8112077",
    ("L3(9,6,4^8)", 1): "d45573093782a355a2081d4bcbc79f3a9ba9da2ca01557b9cfdb7c35cc9a22fe",
    ("L3(9,6,4^8)", 7): "d58ae3069fb22601dbeb3a4b485920a9d0a584507571ddc9542975c2df741e1d",
    ("L3(9,6,4^8)", 2024): "f965fccd2a89fc1e658d0dd81413f427375553234515601a1920c20a4561c501",
    ("L2(12,3^2,4^8)", 1): "0e69e5e1edd0d128bb72c59b1ab0bf4b813f49e5055f6297b3efa2d6a94f1650",
    ("L2(12,3^2,4^8)", 7): "a8f1d078c4ba9fe9923612db023c1011e2a533b5944bae715c3685c66b72c09f",
    ("L2(12,3^2,4^8)", 2024): "13f2705656fed49c19df85ac9b6dc4cebd596e435fb31484a656a75738ce5f50",
}


@pytest.mark.parametrize("what, seed", list(JSON_SHA256))
def test_json_bytes_are_pinned(what, seed, capsys):
    argv = ["counterexample"] if what == "counterexample" else ["special", what]
    assert cli_main(argv + ["--seed", str(seed), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256[what, seed]
    if what != "counterexample":
        payload = json.loads(out)
        assert payload["trials"] == 3  # the count requested, not the count run
        assert "trials_run" not in payload


def test_degenerate_configuration_after_the_retry_budget_exits_one(monkeypatch, capsys):
    def degenerate(points, field):
        raise interp.DegenerateConfigurationError("planted degenerate configuration")

    monkeypatch.setattr(interp, "quadric_through", degenerate)
    assert cli_main(["counterexample", "--seed", "1", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "error: planted degenerate configuration\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 1.18 PiB"), "Unable to allocate 1.18 PiB"),
        (MemoryError(), "allocation failed"),
    ],
)
def test_running_out_of_memory_exits_one(monkeypatch, capsys, exc, message):
    """A system too large to build is a run that could not complete: an
    `error:` line and exit 1, not a traceback."""

    def too_large(sys_, pts, field):
        raise exc

    monkeypatch.setattr(interp, "_system_matrix", too_large)
    assert cli_main(["special", "L3(100000,1)", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory: {message}\n"


def test_environment_seed_is_used(monkeypatch, capsys):
    monkeypatch.setenv("FATPOINTS_SEED", "31")
    code = cli_main(["special", "L2(2,1)", "--json", "--trials", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 31


def test_config_file_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FATPOINTS_SEED", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text("seed = 21\ntrials = 2\noutput = json\n")
    code = cli_main(["counterexample", "--config", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 21
    assert payload["config"]["trials"] == 2


def test_config_output_applies_to_special(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("output = json\nseed = 8\n")
    code = cli_main(["special", "L2(2,1)", "--config", str(path), "--trials", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["command"] == "special"


def test_invalid_prime_is_a_usage_error(capsys):
    code = cli_main(["special", "L2(2,1)", "--prime", "91", "--seed", "1"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(capsys):
    code = cli_main(["counterexample", "--config", "/nonexistent/run.cfg"])
    assert code == 2


def test_script_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["fatpoints"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["vdim", "L2(1)"]) == 0


def test_module_run_exits_through_sys_exit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fatpoints", "vdim", "L2(3,,1)"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
