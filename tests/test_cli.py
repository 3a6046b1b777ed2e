"""Command-line interface: verbs, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ybtrace import catalog
from ybtrace.cli import emit, main
from ybtrace.ring import ScalarContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_catalog_listings(capsys):
    code, out = run(capsys, "catalog", "links")
    assert code == 0
    assert "link 3_1  braid: 1 1 1" in out
    assert "6^2_3" in out
    code, out = run(capsys, "catalog", "rmatrices")
    assert code == 0
    assert "rmatrix R2.1" in out
    code, out = run(capsys, "catalog", "eybs")
    assert "tag: jones" in out
    code, out = run(capsys, "catalog", "relations")
    assert "R1.4" in out


def test_ybe_check_catalog(capsys):
    code, out = run(capsys, "ybe-check", "--rmatrix", "R1.1")
    assert code == 0 and "ok" in out


def test_ybe_check_custom_file(tmp_path, capsys):
    from ybtrace.catalog import get_rmatrix
    from ybtrace.ring import context_to_json
    from ybtrace.tensor import SquareMatrix, matrix_to_json

    spec = get_rmatrix("R1.4")
    ctx_file = tmp_path / "ctx.json"
    ctx_file.write_text(json.dumps(context_to_json(spec.ctx)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(matrix_to_json(spec.matrix)))
    code, out = run(capsys, "ybe-check", "--file", str(good), "--context", str(ctx_file))
    assert code == 0

    bad_matrix = SquareMatrix.from_rows(
        spec.ctx, [[1, 0, 0, 0], [0, 1, "q", 0], [0, "q", 1, 0], [0, 0, 0, 1]]
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(matrix_to_json(bad_matrix)))
    code, _ = run(capsys, "ybe-check", "--file", str(bad), "--context", str(ctx_file))
    assert code == 1
    code, out = run(
        capsys, "ybe-check", "--file", str(bad), "--context", str(ctx_file),
        "--unchecked",
    )
    assert code == 1 and "FAIL" in out


def test_eyb_verify(capsys):
    code, out = run(capsys, "eyb-verify", "--rmatrix", "R2.1", "--row", "1")
    assert code == 0 and "ok" in out
    code, out = run(capsys, "eyb-verify", "--rmatrix", "R1.1", "--row", "4", "--sign", "-")
    assert code == 0


def test_eyb_verify_file_of_an_operator_that_fails_a_condition(capsys, tmp_path):
    from ybtrace.eyb import EnhancedOperator, eyb_to_json, get_table1_eyb
    from ybtrace.ring import context_to_json
    from ybtrace.tensor import SquareMatrix

    op = get_table1_eyb("R2.1", 1)
    # the identity weight fails the partial-trace condition on R2.1's R
    plain = EnhancedOperator(op.r, SquareMatrix.identity(op.ctx, 2), op.alpha, op.beta)
    ctx = _write(tmp_path, "ctx.json", context_to_json(op.ctx))
    path = _write(tmp_path, "op.json", eyb_to_json(plain))
    code = main(["eyb-verify", "--file", path, "--context", ctx])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "EYB: FAIL condition trace2\n", "")


def test_invariant_text_and_json(capsys):
    code, out = run(
        capsys, "invariant", "--rmatrix", "R2.1", "--row", "1",
        "--link", "3_1", "--normalized",
    )
    assert code == 0
    assert out.strip() == "p*q + p^3*q^3 - p^4*q^4"
    code, js = run(
        capsys, "invariant", "--rmatrix", "R2.1", "--row", "1",
        "--braid", "1 1 1", "--normalized", "--format", "json",
    )
    assert code == 0
    payload = json.loads(js)
    assert payload["normalized"] is True
    assert payload["value"]["terms"]


def test_invariant_with_preset(capsys):
    code, out = run(
        capsys, "invariant", "--preset", "d3_R22", "--link", "6^2_2",
    )
    assert code == 0 and out.strip() == "1"


def test_alexander(capsys):
    code, out = run(capsys, "alexander", "--braid", "1 1 1")
    assert code == 0
    assert out.strip() == "t^-2 - 1 + t^2"


def test_skein_check(capsys):
    code, out = run(
        capsys, "skein-check", "--relation", "R2.1", "--base", "1 1",
        "--position", "1",
    )
    assert code == 0
    assert "annihilating relation R2.1: ok" in out
    assert "skein family sum: 0" in out


def test_skein_check_row_that_fixes_a_relation_generator_is_a_usage_error(capsys):
    # R3.1's default row 1 restricts s = 1, but the relation's coefficients use s
    code = main(["skein-check", "--relation", "R3.1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: row 1 of R3.1 ")
    assert "unknown generator 's'" in captured.err
    code, out = run(capsys, "skein-check", "--relation", "R3.1", "--row", "3")
    assert code == 0
    assert out == "annihilating relation R3.1: ok\nskein family sum: 0\n"


def test_skein_check_position_below_one_is_a_usage_error_before_any_check(capsys):
    for position in ("0", "-2"):
        code = main(["skein-check", "--relation", "R2.1", "--position", position])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"usage error: --position {position} names no generator; "
                                "they are numbered from 1\n")


def test_skein_check_builds_its_base_word_before_any_check(capsys):
    """A base word that needs more strands than declared, or that does not
    parse, fails before the relation is checked, so nothing is printed."""
    cases = ((["--base", "1 1", "--strands", "1"], 1,
              "error: letters need 2 strands, only 1 declared\n"),
             (["--base", "x"], 3, "parse error: bad braid letter 'x'\n"))
    for argv, want, err in cases:
        code = main(["skein-check", "--relation", "R2.1"] + argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (want, "", err), argv
    # a declared count below the position's need is raised to it
    code, out = run(capsys, "skein-check", "--relation", "R2.1", "--strands", "1",
                    "--position", "2")
    assert (code, out) == (0, "annihilating relation R2.1: ok\nskein family sum: 0\n")


def test_dress_preset_and_json(tmp_path, capsys):
    code, out = run(capsys, "dress", "--preset", "d3_R21")
    assert code == 0 and "checks passed" in out
    code, js = run(capsys, "dress", "--preset", "d3_R21", "--format", "json")
    payload = json.loads(js)
    assert payload["spec"]["J"] == [1, 3]
    assert payload["matrix"]["side"] == 9

    # custom spec through files
    from ybtrace.ring import context_to_json

    ctx = ScalarContext(("p", "q", "a", "b", "y"), (("sqrt_pq", "p*q"),))
    ctx_file = tmp_path / "ctx.json"
    ctx_file.write_text(json.dumps(context_to_json(ctx)))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(payload["spec"]))
    code, out = run(
        capsys, "dress", "--file", str(spec_file), "--context", str(ctx_file),
        "--base", "R2.1",
    )
    assert code == 0 and "checks passed" in out


def test_table_runners(capsys):
    code, out = run(capsys, "table", "2")
    assert code == 0
    assert "all cells match" in out
    assert out.count("PASS") == 10
    code, csv_text = run(capsys, "table", "4", "--format", "csv")
    assert code == 0
    lines = csv_text.strip().splitlines()
    assert lines[0] == "table,link,column,computed,expected,match"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_every_table_exits_zero(capsys):
    for which in ("1", "2", "3", "4"):
        code, out = run(capsys, "table", which)
        assert code == 0, (which, out.splitlines()[-1:])


def test_classify_csv(capsys):
    code, out = run(capsys, "classify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rmatrix,row,link,value,expected,match"
    assert len(lines) == 1 + 23 * 11
    assert not any(line.endswith(",no") for line in lines[1:])


def test_classify_text_is_one_line_of_fields_per_row(capsys):
    fields = ("rmatrix", "row", "link", "value", "expected", "match")
    rows = json.loads((Path(__file__).resolve().parent / "golden" / "classify_plus.json")
                      .read_text())
    lines = ["  ".join(fields)] + ["  ".join(str(row[k]) for k in fields) for row in rows]
    code = main(["classify", "--format", "text"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "\n".join(lines) + "\n", "")


def test_determinism(capsys):
    _, first = run(capsys, "invariant", "--rmatrix", "R2.1", "--row", "1",
                   "--link", "4_1", "--format", "json")
    _, second = run(capsys, "invariant", "--rmatrix", "R2.1", "--row", "1",
                    "--link", "4_1", "--format", "json")
    assert first == second
    _, first = run(capsys, "catalog")
    _, second = run(capsys, "catalog")
    assert first == second


def test_exit_codes(capsys, tmp_path):
    assert run(capsys, "no-such-verb")[0] == 2
    assert run(capsys, "invariant", "--rmatrix", "R2.1", "--braid", "nope")[0] == 3
    assert run(capsys, "invariant", "--rmatrix", "R2.1")[0] == 2
    assert run(capsys, "alexander")[0] == 2
    assert run(capsys, "invariant", "--link", "3_1")[0] == 2
    # library-level failures map to exit 1: normalization by a zero value
    code = run(capsys, "invariant", "--rmatrix", "R2.2", "--row", "1",
               "--link", "3_1", "--normalized")[0]
    assert code == 1
    # malformed JSON files are parse errors: exit 3, nothing on stdout
    for argv in _malformed_json_invocations(tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), argv
        assert captured.err.startswith("parse error:"), argv
    # a state space above the cap is refused before anything is built
    for argv in (
        ["invariant", "--rmatrix", "R2.1", "--row", "1", "--braid", "1", "--strands", "40"],
        ["invariant", "--rmatrix", "R1.1", "--row", "2", "--braid", "1", "--strands", "40"],
        ["alexander", "--braid", "1", "--strands", "40"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), argv
        assert "2^40 states, above the cap" in captured.err, argv
    # a missing input, a spec out of range and a side above the cap: the exit
    # code and message of each, and nothing on stdout
    ctx = str(tmp_path / "ctx.json")
    n0 = _write(tmp_path, "n0.json", {"N": 0, "J": [1]})
    n65 = _write(tmp_path, "n65.json", {"N": 65, "J": [1, 3]})
    side4097 = _write(tmp_path, "side4097.json",
                      {"side": 4097, "entries": [[0, 0, {"terms": [{"re": "1"}]}]]})
    for argv, expected in (
        (["ybe-check"], (2, "usage error: give --rmatrix or --file")),
        (["ybe-check", "--file", side4097], (2, "usage error: --file needs --context")),
        (["eyb-verify"], (2, "usage error: give --rmatrix or --file")),
        (["dress"], (2, "usage error: give --preset or --file")),
        (["dress", "--file", n0], (2, "usage error: --file needs --context and --base")),
        (["dress", "--file", n0, "--context", ctx, "--base", "R2.1"],
         (3, "parse error: spec.N: expected a positive integer")),
        (["dress", "--file", n65, "--context", ctx, "--base", "R2.1"],
         (1, "error: spec.N = 65 gives 65^2 states, above the cap of 4096")),
        (["ybe-check", "--file", side4097, "--context", ctx],
         (1, "error: matrix side 4097 outside 0..4096, the cap on states")),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err.rstrip("\n"), captured.out) == (*expected, ""), argv
    # a relation checked on another matrix's row: it does not annihilate that
    # row's R, so no skein sum is taken
    code = main(["skein-check", "--relation", "R2.1", "--rmatrix", "R3.1", "--row", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out == "annihilating relation R2.1: FAIL\n"
    # a well-formed spec whose subset does not fit the base is an error
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps({"N": 3, "J": [1, 2, 3]}))
    code = main(["dress", "--file", str(spec), "--context", str(tmp_path / "ctx.json"),
                 "--base", "R2.1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: base side does not match")


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def test_a_file_that_cannot_be_opened_exits_2(capsys, tmp_path):
    ctx = _write(tmp_path, "ctx.json", {"generators": ["q"]})
    missing = str(tmp_path / "missing.json")
    code = main(["ybe-check", "--file", missing, "--context", ctx])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_a_position_listed_twice_is_a_parse_error(capsys, tmp_path):
    """A matrix file that lists (0, 0) as 5 and then as 1, which once kept the
    last listing and passed the check, and a spec that names one pair by two
    keys: exit 3, nothing on stdout, and both listings named."""
    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one, five = {"terms": [{"re": "1"}]}, {"terms": [{"re": "5"}]}
    twice = _write(tmp_path, "twice.json", {
        "side": 4, "entries": [[0, 0, five], [0, 0, one]] + [[k, k, one] for k in (1, 2, 3)]})
    spec = _write(tmp_path, "spec.json", {"N": 4, "J": [1], "s": {"3,1": "p", "03,1": "q"}})
    listed = ("parse error: matrix.entries[1]: position (0, 0) is listed already at "
              "matrix.entries[0]")
    for argv, err in (
        (["ybe-check", "--file", twice, "--context", ctx], listed),
        (["ybe-check", "--file", twice, "--context", ctx, "--unchecked"], listed),
        (["dress", "--file", spec, "--context", ctx, "--base", "R2.1"],
         "parse error: spec.s: keys '3,1' and '03,1' name the same pair (3, 1)"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err.rstrip("\n"), captured.out) == (3, err, ""), argv


def test_yang_baxter_check_above_the_cap_builds_nothing(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the rows of a triple tensor power were built")

    monkeypatch.setattr(catalog, "kronecker", refuse)
    monkeypatch.setattr(catalog, "embed_generator", refuse)
    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one = {"terms": [{"re": "1"}]}
    side289 = _write(tmp_path, "side289.json",
                     {"side": 289, "entries": [[k, k, one] for k in range(289)]})
    spec17 = _write(tmp_path, "spec17.json", {"N": 17, "J": [1, 2]})
    for argv in (
        ["ybe-check", "--file", side289, "--context", ctx],
        ["ybe-check", "--file", side289, "--context", ctx, "--unchecked"],
        ["dress", "--file", spec17, "--context", ctx, "--base", "R2.1"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), argv
        assert "17^3 states, above the cap" in captured.err, argv


def test_dense_matrix_above_the_entry_cap_is_refused_at_once(capsys, tmp_path):
    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one = {"terms": [{"re": "1"}]}
    dense = _write(tmp_path, "dense256.json",
                   {"side": 256, "entries": [[r, c, one] for r in range(256) for c in range(256)]})
    start = time.perf_counter()
    code = main(["ybe-check", "--file", dense, "--context", ctx])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "above the cap of 16384" in captured.err
    assert elapsed < 1.0


def test_oversized_scalar_text_is_refused_at_once(capsys, tmp_path):
    texts = ("(1+q)^99999", "sqrt_1mq2^99999", "((1+q)^64)^64")
    root = {"name": "sqrt_1mq2", "radicand": "1-q^2"}
    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"], "roots": [root]})
    op = _write(tmp_path, "op.json", {})
    for k, text in enumerate(texts):
        as_radicand = _write(tmp_path, f"rad{k}.json", {
            "generators": ["p", "q"], "roots": [root, {"name": "r", "radicand": text}]})
        as_weight = _write(tmp_path, f"spec{k}.json", {"N": 3, "J": [1, 3], "s": {"1,2": text}})
        for argv in (
            ["eyb-verify", "--file", op, "--context", as_radicand],
            ["dress", "--file", as_weight, "--context", ctx, "--base", "R2.1"],
        ):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, ""), argv
            assert captured.err.startswith("parse error:"), argv
            assert elapsed < 1, argv


def _malformed_json_invocations(tmp_path):
    from ybtrace.catalog import get_rmatrix
    from ybtrace.eyb import eyb_to_json, get_table1_eyb
    from ybtrace.ring import context_to_json
    from ybtrace.tensor import matrix_to_json

    def write(name, obj):
        return _write(tmp_path, name, obj)

    op = get_table1_eyb("R2.1", 1)
    ctx = write("ctx.json", context_to_json(op.ctx))
    spec = get_rmatrix("R1.4")
    ctx14 = write("ctx14.json", context_to_json(spec.ctx))
    eyb_abc = eyb_to_json(op)
    eyb_abc["alpha"]["terms"][0]["re"] = "abc"
    eyb_exp = eyb_to_json(op)
    eyb_exp["alpha"]["terms"][0]["re"] = "1e999999999"
    no_entries = matrix_to_json(spec.matrix)
    del no_entries["entries"]
    matrix_abc = matrix_to_json(spec.matrix)
    matrix_abc["entries"][0][2]["terms"][0]["re"] = "abc"
    no_radicand = context_to_json(op.ctx)
    del no_radicand["roots"][0]["radicand"]
    return [
        ["eyb-verify", "--file", write("eyb_abc.json", eyb_abc), "--context", ctx],
        ["eyb-verify", "--file", write("eyb_exp.json", eyb_exp), "--context", ctx],
        ["ybe-check", "--file", write("no_entries.json", no_entries), "--context", ctx14],
        ["ybe-check", "--file", write("matrix_abc.json", matrix_abc), "--context", ctx14],
        ["ybe-check", "--file", write("text.json", "{not json"), "--context", ctx14],
        ["dress", "--file", write("spec.json", {"N": 3, "J": [1, 3], "s": {"1;2": "1"}}),
         "--context", ctx, "--base", "R2.1"],
        ["eyb-verify", "--file", write("eyb_ok.json", eyb_to_json(op)),
         "--context", write("no_radicand.json", no_radicand)],
    ]


def test_emit_scalar_formatting():
    ctx = ScalarContext(("t",))
    x = ctx.parse("t + t^3 - t^4")
    assert emit(x) == "t + t^3 - t^4"
    assert json.loads(emit(x, "json"))["terms"][0]["exps"] == {"t": "1"}


def test_unchecked_dense_matrix_is_refused_before_parsing(capsys, tmp_path, monkeypatch):
    from ybtrace import tensor

    def no_parsing(*args):
        raise AssertionError("a scalar was parsed")

    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one = {"terms": [{"re": "1"}]}
    dense = _write(tmp_path, "dense256.json",
                   {"side": 256, "entries": [[r, c, one] for r in range(256) for c in range(256)]})
    monkeypatch.setattr(tensor, "scalar_from_json", no_parsing)
    code = main(["ybe-check", "--file", dense, "--context", ctx, "--unchecked"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "above the cap of 16384" in captured.err


def test_eyb_verify_refuses_a_large_r_or_a_misshapen_mu_before_any_product(
        capsys, tmp_path, monkeypatch):
    from ybtrace import eyb, tensor
    from ybtrace.ring import Scalar

    def unreachable(*args):
        raise AssertionError("reached")

    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one = {"terms": [{"re": "1"}]}

    def dense(side):
        return {"side": side, "entries": [[r, c, one] for r in range(side) for c in range(side)]}

    def operator(name, r, mu):
        return _write(tmp_path, name, {"r": r, "mu": mu, "alpha": one, "beta": one})

    cases = (
        (operator("large_r.json", dense(64), dense(8)), tensor, "scalar_from_json",
         "above the cap of 16384"),
        (operator("wide_mu.json", dense(4), dense(16)), eyb, "kron",
         "mu has side 16, so mu (x) mu does not match R's side 4"),
        # R lists 200 positions, under the cap, and mu matches its side, but
        # kron(mu, mu) would store 64^4 entries: refused before any product
        (operator("dense_mu.json", {"side": 4096, "entries": [[k, k, one] for k in range(200)]},
                  dense(64)), Scalar, "__mul__", "above the cap of 16384"),
    )
    for path, module, name, err in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, unreachable)
            start = time.perf_counter()
            code = main(["eyb-verify", "--file", path, "--context", ctx])
            elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), path
        assert err in captured.err, path
        assert elapsed < 2, path


def test_unchecked_matrix_under_the_cap_keeps_its_errors(capsys, tmp_path):
    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    one = {"terms": [{"re": "1"}]}
    cases = (
        ({"side": 4, "entries": [[0, 0, {"terms": [{"re": "x"}]}]]}, 3, "parse error:"),
        ({"side": 3, "entries": [[0, 0, one]]}, 1, "not a perfect square"),
        ({"side": 4, "entries": [[k, k, one] for k in range(4)]}, 0, ""),
    )
    for k, (obj, want, err) in enumerate(cases):
        path = _write(tmp_path, f"m{k}.json", obj)
        code = main(["ybe-check", "--file", path, "--context", ctx, "--unchecked"])
        captured = capsys.readouterr()
        assert code == want and err in captured.err, (obj, captured)
    assert captured.out == "YBE: ok\n"


def test_exponent_beyond_the_range_exits_3(capsys, tmp_path):
    from ybtrace.ring import MAX_EXPONENT

    ctx = _write(tmp_path, "ctx.json", {"generators": ["p", "q"]})
    big_radicand = _write(tmp_path, "rad.json", {
        "generators": ["p", "q"], "roots": [{"name": "r", "radicand": "q^1" + "0" * 50}]})
    one = {"terms": [{"re": "1"}]}
    far = {"terms": [{"re": "1", "exps": {"q": str(MAX_EXPONENT)}}]}
    matrix = _write(tmp_path, "m.json", {"side": 4, "entries": [[0, 0, far], [1, 1, one]]})
    for argv in (["ybe-check", "--file", matrix, "--context", ctx],
                 ["ybe-check", "--file", matrix, "--context", big_radicand]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), argv
        assert captured.err.startswith("parse error:"), argv


def test_dress_file_dresses_the_rows_restricted_matrix(capsys, tmp_path):
    from ybtrace.dressing import DiagonalDressingSpec, dress_diagonal
    from ybtrace.eyb import get_table1_entry
    from ybtrace.ring import context_to_json
    from ybtrace.tensor import matrix_to_json

    spec = _write(tmp_path, "spec.json", {"N": 3, "J": [1, 3]})
    for base, row, gens in (("R3.1", 1, ("p", "q", "s")), ("R3.1", 2, ("p", "q", "s")),
                            ("R2.1", 4, ("p", "q", "lam")), ("R2.1", 5, ("p", "q", "lam"))):
        ctx = ScalarContext(gens)
        ctx_file = _write(tmp_path, "ctx.json", context_to_json(ctx))
        argv = ["dress", "--file", spec, "--context", ctx_file, "--base", base,
                "--base-row", str(row), "--mode", "trivial"]
        code, out = run(capsys, *argv)
        assert code == 0 and out.endswith("entries; checks passed\n"), argv
        code, out = run(capsys, *argv, "--format", "json")
        row_r = get_table1_entry(base, row).build(ctx=ctx).r
        dressed = dress_diagonal(row_r, DiagonalDressingSpec(ctx, 3, (1, 3)))
        assert code == 0 and json.loads(out)["matrix"] == matrix_to_json(dressed), argv


def test_ybe_check_file_runs_the_check_once(capsys, tmp_path, monkeypatch):
    from ybtrace import cli
    from ybtrace.ring import context_to_json
    from ybtrace.tensor import SquareMatrix, matrix_to_json

    calls = []
    original = catalog.check_ybe

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(catalog, "check_ybe", counted)
    monkeypatch.setattr(cli, "check_ybe", counted)
    spec = catalog.get_rmatrix("R1.4")
    ctx = _write(tmp_path, "ctx.json", context_to_json(spec.ctx))
    good = _write(tmp_path, "good.json", matrix_to_json(spec.matrix))
    broken = SquareMatrix.from_rows(
        spec.ctx, [[1, 0, 0, 0], [0, 1, "q", 0], [0, "q", 1, 0], [0, 0, 0, 1]])
    verdict = original(broken)
    bad = _write(tmp_path, "bad.json", matrix_to_json(broken))
    # the same matrix with a root for q: the check's fallback names the witness
    rooted_ctx = ScalarContext(("q",), (("sqrt_1mq2", "1-q^2"),))
    root_ctx = _write(tmp_path, "root_ctx.json", context_to_json(rooted_ctx))
    rooted = _write(tmp_path, "rooted.json", matrix_to_json(SquareMatrix.from_rows(
        rooted_ctx, [[1, 0, 0, 0], [0, 1, "sqrt_1mq2", 0], [0, "sqrt_1mq2", 1, 0], [0, 0, 0, 1]])))
    for path, context, flags, want in (
        (good, ctx, (), (0, "YBE: ok\n")),
        (good, ctx, ("--unchecked",), (0, "YBE: ok\n")),
        (bad, ctx, (), (1, f"matrix fails the Yang-Baxter check at {verdict.index}: "
                           f"residual {verdict.residual}\n")),
        (bad, ctx, ("--unchecked",), (1, f"YBE: FAIL at {verdict.index}, "
                                         f"residual {verdict.residual}\n")),
        (rooted, root_ctx, (), (1, "matrix fails the Yang-Baxter check at (1, 1): "
                                   "residual -1 + q^2\n")),
        (rooted, root_ctx, ("--unchecked",), (1, "YBE: FAIL at (1, 1), residual -1 + q^2\n")),
    ):
        calls.clear()
        assert run(capsys, "ybe-check", "--file", path, "--context", context, *flags) == want
        assert len(calls) == 1, (path, flags)


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "ybtrace", "catalog"], env=env,
                          capture_output=True, text=True, timeout=60)
    code, out = run(capsys, "catalog")
    assert (done.returncode, done.stdout) == (code, out)
