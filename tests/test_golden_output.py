"""CLI output, byte for byte, against files written by an earlier commit.

Each file in ``tests/golden/`` holds the stdout of one command, as the CLI
printed it before the scalar ring changed its internal representation.  A
change that alters a value, the order of terms or the text of a coefficient
fails here.  To write a file for a new command, run it with an unchanged
library: ``PYTHONPATH=src python -m ybtrace.cli ARGS > tests/golden/NAME``.
Commands that read a file take it from ``tests/inputs/``.
"""

from pathlib import Path

import pytest

from ybtrace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = Path(__file__).resolve().parent / "inputs"

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


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in COMMANDS)


@pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_cli_output_matches_golden_file(name, argv, capsys):
    main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / name).read_bytes(), f"ybtrace {' '.join(argv)}"
