"""Self-tests of the benchmark: PYTHONPATH=src python3 -m pytest -q perfbench"""

from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ybtrace import braid, ring  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _signature(name, seed):
    """Byte form of a workload's inputs for one seed."""
    work = workloads.WORKLOADS[name]
    held = work["setup"]()
    out = []
    for query in work["inputs"](held, seed):
        if name == "verify":
            kind, matrices = query
            out.append([kind] + [workloads.text((m, None)) if hasattr(m, "entries")
                                 else ring.format_scalar(m) for m in matrices])
        else:
            out.append(repr(query))
    return json.dumps(out).encode()


def test_verify_generator_is_deterministic():
    assert _signature("verify", 7) == _signature("verify", 7)
    assert _signature("verify", 7) != _signature("verify", 8)


def test_tables_ignores_the_seed():
    assert _signature("tables", 1) == _signature("tables", 2)


def _bindings():
    """Every attribute of every ybtrace module and wrapped class, by identity."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "ybtrace" or name.startswith("ybtrace."):
            found.update({(name, attr): value for attr, value in vars(module).items()})
    for layer, classes in spans.METHODS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"ybtrace.{layer}"], cls_name)
            found.update({(cls_name, attr): value for attr, value in vars(cls).items()})
    return found


def test_tracer_reaches_every_binding_and_restores_it():
    from ybtrace import catalog, eyb, invariant, tensor

    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        # a name imported with `from .tensor import matmul` is wrapped too
        for namespace in (tensor, invariant, catalog, eyb):
            assert inspect.unwrap(namespace.matmul) is not namespace.matmul
        assert ring.Scalar.__rmul__ is not ring.Scalar.__mul__
        assert inspect.unwrap(ring.Scalar.__rmul__) is before[("Scalar", "__rmul__")]
        op = eyb.get_table1_eyb("R2.1", 1)
        value = invariant.compute_ts(op, braid.BraidWord(2, (1, 1, 1))).value
        (2 * value, 2 + value)  # reflected operators
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    calls = tracer.summary()["calls"]
    assert calls["invariant.compute_ts"] == 1
    assert calls["invariant.braid_rep"] == 1  # not folded into compute_ts
    assert calls["ring.mul"] > 0 and calls["tensor.matmul"] > 0


def test_traced_outputs_equal_untraced():
    work = workloads.WORKLOADS["verify"]
    held = work["setup"]()
    queries = work["inputs"](held, 3)[:8]
    plain, _, _ = run.run_pass(work, held, queries)
    with spans.Tracer():
        traced, _, _ = run.run_pass(work, held, queries)
    assert run.texts_of(plain) == run.texts_of(traced)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    with tracer:
        workloads.WORKLOADS["verify"]["setup"]()
    layer = spans.layer_metrics(tracer.summary(), 0.0)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]] + list(layer)
    assert all(NAME.fullmatch(name) for name in names)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.PASS_SECONDS) == set(workloads.WORKLOADS)


def test_term_count_from_canonical_text():
    ctx = ring.ScalarContext(("p", "q"), (("sqrt_pq", "p*q"),))
    for text in ("0", "1", "-p + q", "(1+2*i)*p - (3-i)*q^-1 + sqrt_pq/2",
                 "-(1+i)*p + q^(1/2) - 2", "(p - q)*(p + q)*(1 - sqrt_pq)"):
        x = ctx.parse(text)
        assert spans.terms_in_text(ring.format_scalar(x)) == len(x.terms), text


def test_pass_count_is_fixed_by_seconds():
    assert run.pass_count("tables", 30) == 5
    assert run.pass_count("verify", 1) == run.MIN_PASSES


def test_tail_keeps_ten_samples_beyond():
    assert run.tail_index(256) == 245
    with pytest.raises(ValueError):
        run.tail_index(10)


def test_speed_log_rescales_by_the_fastest_nearby_sample():
    log = speed.SpeedLog()
    w, r = log.WINDOW_S, speed.REFERENCE_S
    log.times = [0.0, w, 3 * w, 4 * w]
    log.seconds = [2 * r, r / 2, r, 4 * r]
    assert log.scaled(1.0, 0.0, 0.0) == 2.0  # the sample at w is in reach
    assert log.scaled(1.0, 3.5 * w, 3.5 * w) == 1.0
    assert log.scaled(1.0, 4 * w, 4 * w) == 1.0
    assert speed.reference_work() == speed.reference_work() > 0


def test_run_pass_samples_the_reference_speed():
    work = workloads.WORKLOADS["verify"]
    held = work["setup"]()
    queries = work["inputs"](held, 3)[:4]
    log = speed.SpeedLog()
    values, latencies, spans_ = run.run_pass(work, held, queries, log)
    assert len(values) == len(latencies) == len(spans_) == 4
    assert len(log.seconds) >= 2 and log.times == sorted(log.times)
    for t, (start, end) in zip(latencies, spans_):
        assert t == end - start and log.scaled(t, start, end) > 0
