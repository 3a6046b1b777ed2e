"""CLI output, byte for byte, against files written by an earlier commit.

Each file in ``tests/golden/`` holds the stdout of one command, as the CLI
printed it before the scalar ring changed its internal representation.  A
change that alters a value, the order of terms or the text of a coefficient
fails here.  To write a file for a new command, run it with an unchanged
library: ``PYTHONPATH=src python -m ybtrace.cli ARGS > tests/golden/NAME``.
Commands that read a file take it from ``tests/inputs/``.  The stdout of
each ``demos/0N_*.py`` is kept the same way, as ``tests/golden/demo_0N.txt``:
``PYTHONPATH=src python demos/0N_*.py > tests/golden/demo_0N.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybtrace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = Path(__file__).resolve().parent / "inputs"
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

LINKS = ("0_1", "3_1", "4_1", "5_1", "5_2", "2^2_1", "4^2_1", "5^2_1",
         "6^2_1", "6^2_2", "6^2_3")
PRESETS = ("d3_R21", "d4_R22")

COMMANDS = (
    [(f"classify_{name}.json", ["classify", "--format", "json", "--sign", sign])
     for name, sign in (("plus", "+"), ("minus", "-"))]
    + [(f"table_{k}.json", ["table", str(k), "--format", "json"]) for k in (1, 2, 3, 4)]
    + [(f"alexander_{link}.json", ["alexander", "--link", link, "--format", "json"])
       for link in LINKS]
    + [(f"invariant_{preset}_5_2.json",
        ["invariant", "--preset", preset, "--link", "5_2", "--format", "json"])
       for preset in PRESETS]
    + [(f"dress_{preset}.json", ["dress", "--preset", preset, "--format", "json"])
       for preset in PRESETS]
    + [(f"dress_file_{mode}_{check}.{'json' if fmt == 'json' else 'txt'}",
        ["dress", "--file", str(INPUTS / "dress_spec.json"),
         "--context", str(INPUTS / "dress_context.json"), "--base", "R2.1",
         "--mode", mode, "--format", fmt] + (["--no-check"] if check == "no_check" else []))
       for mode in ("trivial", "nontrivial") for check in ("check", "no_check")
       for fmt in ("text", "json")]
)


def _demo_golden(demo):
    return f"demo_{demo.name[:2]}.txt"


def test_every_golden_file_has_a_command():
    expected = [name for name, _ in COMMANDS] + [_demo_golden(demo) for demo in DEMOS]
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)


@pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_cli_output_matches_golden_file(name, argv, capsys):
    main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / name).read_bytes(), f"ybtrace {' '.join(argv)}"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_matches_golden_file(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         check=True, timeout=60)
    assert run.stdout == (GOLDEN / _demo_golden(demo)).read_bytes(), demo.name
