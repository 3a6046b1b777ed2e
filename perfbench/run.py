"""Benchmark for ybtrace: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare A.json B.json

A run answers the workload's queries in a closed loop (one caller, one query
at a time, one process) in a fixed number of passes over its seeded input,
as many as fill ``--seconds`` at the speed in PASS_SECONDS, then checks every
answer: the first pass against the oracles, later passes against the first.
Every timing is rescaled to a fixed machine speed (speed.py).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run traces set-up plus one pass and
reports per-layer metrics instead.  ``--out FILE`` also appends the result,
with the pass count, git sha, Python version, CPU count and seed, to a JSON
list that ``--compare`` reads.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES_PER_PASS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10
# About the seconds one pass takes on a 2-vCPU Xeon VM (KVM, 2.0 GHz) with
# Python 3.11.  They turn --seconds into a pass count that is the same on
# every commit, so that a faster or slower one is measured over as many
# passes.
PASS_SECONDS = {"tables": 6.0, "verify": 5.0}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import ybtrace and the oracles from this checkout, never from elsewhere."""
    package = ROOT / "src" / "ybtrace"
    if not (package / "__init__.py").is_file():
        _fail(f"no ybtrace source under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        _fail(f"no oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import ybtrace

    if Path(ybtrace.__file__).resolve().parent != package:
        _fail(f"imported ybtrace from {ybtrace.__file__}, not from {package}")


def probe_setup(workload, count):
    """Seconds for each of ``count`` fresh interpreters to import ybtrace and set up.

    Returns (wall seconds, seconds at reference speed) per probe.  Each probe
    times the reference work itself: it may run on another CPU than this
    process, at another speed.
    """
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, reference = map(float, done.stdout.split()[-2:])
        times.append((seconds, seconds * speed.REFERENCE_S / reference))
    return times


def run_pass(work, held, queries, log=None):
    """Answer every query once; returns (values, seconds per query, (start, end) per query).

    A query that raises is recorded as its exception, never fatal.  With a
    SpeedLog, the reference work is timed between queries whenever it is due.
    """
    values, latencies, spans = [], [], []
    if log is not None:
        log.sample()
    for query in queries:
        start = perf_counter()
        try:
            value = work["run"](held, query)
        except Exception as exc:  # counted as a failed query
            value = exc
        end = perf_counter()
        latencies.append(end - start)
        spans.append((start, end))
        values.append(value)
        if log is not None and log.due():
            log.sample()
    if log is not None:
        log.sample()
    return values, latencies, spans


def texts_of(values):
    import workloads

    out = []
    for value in values:
        if isinstance(value, Exception):
            out.append("error: " + "".join(traceback.format_exception_only(value)).strip())
        else:
            out.append(workloads.text(value))
    return out


def oracle_verdicts(work, held, queries, values):
    """One bool per query from the workload's oracles; raised queries fail."""
    answered = [i for i, v in enumerate(values) if not isinstance(v, Exception)]
    verdicts = [False] * len(queries)
    checked = work["check"](held, [queries[i] for i in answered], [values[i] for i in answered])
    for i, ok in zip(answered, checked):
        verdicts[i] = bool(ok)
    return verdicts


def digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def tail_index(n):
    """Index into n sorted samples with exactly TAIL_BEYOND samples beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} queries per pass; the tail needs more than {TAIL_BEYOND}")
    return n - TAIL_BEYOND - 1


def pass_count(name, seconds):
    """Passes that fill ``seconds`` at the speed in PASS_SECONDS; at least MIN_PASSES."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))


def end_to_end(name, work, held, queries, seconds):
    """Timed passes filling ``seconds``; returns (metrics, attempted, failed, passes, notes).

    On a shared virtual machine the CPU runs in slower and faster phases,
    often twice as slow on a 2-vCPU Xeon VM and often longer than a run.
    So every timing is rescaled to the reference speed of speed.py, each
    query's latency is the fastest of its passes, and the set-up probes are
    spread between the passes.
    """
    log = speed.SpeedLog()
    setup_times = probe_setup(name, PROBES_PER_PASS + 1)
    passes = []  # (texts, latencies at reference speed, wall latencies)
    first_values = None
    for _ in range(pass_count(name, seconds)):
        values, latencies, spans = run_pass(work, held, queries, log)
        if first_values is None:
            first_values = values
        scaled = [log.scaled(t, *span) for t, span in zip(latencies, spans)]
        passes.append((texts_of(values), scaled, latencies))
        setup_times += probe_setup(name, PROBES_PER_PASS)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = oracle_verdicts(work, held, queries, first_values)
    reference = passes[0][0]
    failed = sum(
        not ok or got != want
        for texts, _, _ in passes
        for ok, got, want in zip(verdicts, texts, reference)
    )
    attempted = len(queries) * len(passes)
    n = len(queries)
    k = tail_index(n)

    def latency_metrics(column):
        best = sorted(min(p[column][i] for p in passes) for i in range(n))
        return n / sum(best), statistics.median(best) * 1e3, best[k] * 1e3

    qps, p50, tail = latency_metrics(1)
    wall_qps, wall_p50, wall_tail = latency_metrics(2)
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        "queries_per_s": (qps, "1/s"),
        "query_p50_ms": (p50, "ms"),
        "query_tail_ms": (tail, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = [
        f"passes {len(passes)} of {n} queries, digest {digest(reference)}; "
        "a query's latency is the fastest of its passes",
        f"setup_s is the median of {len(setup_times)} fresh interpreters",
        f"query_tail_ms is p{100 * (k + 1) / n:.1f} of {n} per-query latencies "
        f"({TAIL_BEYOND} beyond)",
        f"timings are at reference speed: reference work {speed.REFERENCE_S * 1e3:.2f} ms; "
        f"it took {min(log.seconds) * 1e3:.2f} to {max(log.seconds) * 1e3:.2f} ms "
        f"in {len(log.seconds)} samples",
        f"wall clock: setup_s {statistics.median(t for t, _ in setup_times):.6g}, "
        f"queries_per_s {wall_qps:.6g}, query_p50_ms {wall_p50:.6g}, "
        f"query_tail_ms {wall_tail:.6g}",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})",
    ]
    bad = [i for i, ok in enumerate(verdicts) if not ok]
    if bad:
        notes.append(f"first failed query #{bad[0]}: {reference[bad[0]][:300]}")
    return metrics, attempted, failed, len(passes), notes


def traced(name, work, seed):
    """Traced set-up and one traced pass, beside one untraced pass."""
    import spans

    tracer = spans.Tracer()
    with tracer:
        held = work["setup"]()
    queries = work["inputs"](held, seed)
    values, plain, _ = run_pass(work, held, queries)
    with tracer:
        traced_values, timed, _ = run_pass(work, held, queries)
    plain_texts, traced_texts = texts_of(values), texts_of(traced_values)
    verdicts = oracle_verdicts(work, held, queries, values)
    failed = sum(not ok for ok in verdicts) + sum(
        a != b for a, b in zip(plain_texts, traced_texts))
    overhead = (sum(timed) - sum(plain)) / sum(plain)
    summary = tracer.summary()
    _write_spans(tracer, name, seed)
    for op in sorted(summary["calls"], key=lambda o: -summary["self_s"][o]):
        print(f"  {op:32s} calls {summary['calls'][op]:9d}  self {summary['self_s'][op]:9.4f} s"
              f"  busy {summary['busy_s'][op]:9.4f} s", file=sys.stderr)
    notes = [
        f"untraced digest {digest(plain_texts)}, traced digest {digest(traced_texts)}",
        f"{len(tracer.spans)} spans, written to {_spans_path(name, seed).relative_to(ROOT)}",
    ]
    return spans.layer_metrics(summary, overhead), 2 * len(queries), failed, 2, notes


def _spans_path(name, seed):
    return HERE / "out" / f"spans-{name}-seed{seed}.tsv"


def _write_spans(tracer, name, seed):
    path = _spans_path(name, seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        handle.write("index\top\tparent\tstart\tend\n")
        for index, (op_id, parent, start, end) in enumerate(tracer.spans):
            handle.write(f"{index}\t{tracer.ops[op_id]}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _append_record(path, record):
    path = Path(path)
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def compare(path_a, path_b):
    """Print median and quartiles of each side and the ratio B/A per workload and metric."""
    sides = []
    for path in (path_a, path_b):
        values = {}
        for record in json.loads(Path(path).read_text()):
            for metric, entry in record["result"]["metrics"].items():
                key = (record["workload"], metric, entry["unit"])
                values.setdefault(key, []).append(entry["value"])
        sides.append(values)
    print(f"{'workload':8s} {'metric':34s} {'unit':6s} "
          f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>7s}")
    for key in sorted(set(sides[0]) | set(sides[1])):
        cells = []
        for values in sides:
            data = values.get(key)
            if not data:
                cells.append((None, f"{'-':>34s}"))
                continue
            q1, med, q3 = (statistics.quantiles(data, n=4) if len(data) > 1
                           else (data[0],) * 3)
            cells.append((med, f"{med:12.6g} [{q1:9.6g}, {q3:9.6g}] n={len(data):<2d}"))
        (a, text_a), (b, text_b) = cells
        ratio = f"{b / a:7.3f}" if a and b is not None else f"{'-':>7s}"
        print(f"{key[0]:8s} {key[1]:34s} {key[2]:6s} {text_a:>34s} {text_b:>34s} {ratio}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSON list")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    _import_library()
    import workloads

    name = args.workload
    work = workloads.WORKLOADS[name]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, passes, notes = traced(name, work, args.seed)
    else:
        held = work["setup"]()
        queries = work["inputs"](held, args.seed)
        metrics, attempted, failed, passes, notes = end_to_end(
            name, work, held, queries, args.seconds)
    for line in notes:
        print("  " + line)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    if args.out:
        _append_record(args.out, {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, "sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "result": result,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
