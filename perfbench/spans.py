"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install()`` wraps the public functions of each layer module, in every
``ybtrace`` module namespace that binds them (modules bind many of them with
``from .x import name``), plus the arithmetic methods of ``Scalar``.
``restore()`` puts every original back.  While installed and ``recording``,
each wrapped call appends a span (op, parent span, start, end).  A ring call
made from inside another ring call is folded into the outer span: ring
internals calling each other are an implementation detail of the ring, and
folding keeps ``ring.mul.calls`` a count of the multiplications the engine
asks for.  Calls in every other layer open their own span, so that
``braid_representation`` keeps its own span inside ``compute_ts``.

Cheap predicates (``Scalar.is_zero`` and the like) and private helpers are not
wrapped; their time counts as self time of the caller.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

from ybtrace import ring

LAYERS = ("ring", "tensor", "catalog", "eyb", "invariant", "dressing", "tables")

# functions whose op name in the metrics is not the function name
RENAMES = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add",
    "__pow__": "pow", "pow_int": "pow",
    "try_div_exact": "div",
    "parse": "parse", "parse_scalar": "parse", "scalar_from_json": "parse",
    "context_from_json": "parse",
    "format_scalar": "format", "scalar_to_json": "format", "context_to_json": "format",
    "embed_generator": "embed",
    "braid_representation": "braid_rep",
    "verify_eyb": "verify",
}

# class attributes wrapped besides each layer's public module functions
METHODS = {
    "ring": {"Scalar": ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                        "__rsub__", "__neg__", "__pow__"),
             "ScalarContext": ("parse",)},
    "eyb": {"Table1Entry": ("build",)},
}


def _terms(scalar):
    """Term count of a scalar.

    Reads the ``terms`` dict while Scalar has one, else counts the terms of
    the canonical text, which stays fixed when the representation changes.
    """
    terms = getattr(scalar, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    return terms_in_text(inspect.unwrap(ring.format_scalar)(scalar))


def terms_in_text(text):
    """Terms of a canonical scalar text, whose terms are joined by ' + ' or ' - '."""
    return 0 if text == "0" else text.count(" + ") + text.count(" - ") + 1


class Tracer:
    """Wraps the layers of one imported ``ybtrace`` and collects spans."""

    def __init__(self):
        self.ops = []  # op id -> "layer.op"
        self.spans = []  # (op id, parent span or -1, start, end)
        self.failed = Counter()  # op id -> calls that raised
        self.peaks = Counter()  # metric name -> largest value seen
        self.verify_ok = 0
        self.recording = False
        self._stack = []  # open (span index, layer)
        self._saved = []  # (namespace, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ybtrace" or name.startswith("ybtrace.")]
        for layer in LAYERS:
            module = sys.modules[f"ybtrace.{layer}"]
            for name, fn in sorted(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapper = self._wrap(layer, RENAMES.get(name, name), fn)
                    for namespace in modules:
                        for attr, value in list(vars(namespace).items()):
                            if value is fn:
                                self._replace(namespace, attr, wrapper)
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in attrs:
                    fn = cls.__dict__[attr]
                    self._replace(cls, attr, self._wrap(layer, RENAMES.get(attr, attr), fn))

    def restore(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        self.recording = True
        return self

    def __exit__(self, *exc):
        self.recording = False
        self.restore()

    def _replace(self, namespace, attr, wrapper):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def _wrap(self, layer, op, fn):
        name = f"{layer}.{op}"
        if name not in self.ops:
            self.ops.append(name)
        op_id = self.ops.index(name)
        spans, stack, failed = self.spans, self._stack, self.failed
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            if not self.recording or (layer == "ring" and stack and stack[-1][1] == "ring"):
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[op_id] += 1
                raise
            finally:
                spans[index] = (op_id, parent, start, perf_counter())
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        return wrapper

    def _observer(self, name):
        """Size statistics read from a call's result.

        They are read after the call's span ends, so their small cost counts
        as self time of the caller.
        """
        peaks = self.peaks

        def mul(result):
            if result is not NotImplemented:
                peaks["ring.mul.terms_out_max"] = max(peaks["ring.mul.terms_out_max"],
                                                      _terms(result))

        def matmul(result):
            peaks["tensor.matmul.nnz_out_max"] = max(peaks["tensor.matmul.nnz_out_max"],
                                                     len(result.entries))
            widest = max(map(_terms, result.entries.values()), default=0)
            peaks["tensor.matmul.entry_terms_max"] = max(
                peaks["tensor.matmul.entry_terms_max"], widest)

        def verify(result):
            self.verify_ok += bool(result)

        return {"ring.mul": mul, "tensor.matmul": matmul, "eyb.verify": verify}.get(name)

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Per-op and per-layer calls, self time and busy time from the spans.

        Self time is a span's duration minus that of its direct children;
        busy time sums the spans with no ancestor of the same op (or layer).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for op_id, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".")[0] for name in self.ops]
        calls, self_s, busy = Counter(), Counter(), Counter()
        for index, (op_id, parent, start, end) in enumerate(spans):
            name, layer = self.ops[op_id], layer_of[op_id]
            calls[name] += 1
            own = end - start - child[index]
            self_s[name] += own
            self_s[layer] += own
            outer_op = outer_layer = True
            while parent >= 0:
                ancestor = spans[parent][0]
                outer_op = outer_op and ancestor != op_id
                outer_layer = outer_layer and layer_of[ancestor] != layer
                parent = spans[parent][1]
            if outer_op:
                busy[name] += end - start
            if outer_layer:
                busy[layer] += end - start
        failed = Counter({self.ops[k]: v for k, v in self.failed.items()})
        return {"calls": calls, "self_s": self_s, "busy_s": busy, "failed": failed,
                "peaks": Counter(self.peaks), "verify_ok": self.verify_ok}


def layer_metrics(summary, overhead_frac):
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, self_s, busy = summary["calls"], summary["self_s"], summary["busy_s"]
    failed, peaks = summary["failed"], summary["peaks"]
    verify_calls = calls["eyb.verify"]
    out = {
        "ring.self_s": (self_s["ring"], "s"),
        "ring.mul.calls": (calls["ring.mul"], "count"),
        "ring.mul.self_s": (self_s["ring.mul"], "s"),
        "ring.mul.terms_out_max": (peaks["ring.mul.terms_out_max"], "count"),
        "ring.add.calls": (calls["ring.add"], "count"),
        "ring.div.calls": (calls["ring.div"], "count"),
        "ring.div.self_s": (self_s["ring.div"], "s"),
        "ring.div.failed": (failed["ring.div"], "count"),
        "ring.substitute.calls": (calls["ring.substitute"], "count"),
        "ring.substitute.self_s": (self_s["ring.substitute"], "s"),
        "ring.parse.calls": (calls["ring.parse"], "count"),
        "ring.format.calls": (calls["ring.format"], "count"),
        "ring.textio.self_s": (self_s["ring.parse"] + self_s["ring.format"], "s"),
        "tensor.self_s": (self_s["tensor"], "s"),
        "tensor.matmul.calls": (calls["tensor.matmul"], "count"),
        "tensor.matmul.self_s": (self_s["tensor.matmul"], "s"),
        "tensor.matmul.nnz_out_max": (peaks["tensor.matmul.nnz_out_max"], "count"),
        "tensor.matmul.entry_terms_max": (peaks["tensor.matmul.entry_terms_max"], "count"),
        "tensor.embed.calls": (calls["tensor.embed"], "count"),
        "tensor.trace_product.self_s": (self_s["tensor.trace_product"], "s"),
        "tensor.kron.calls": (calls["tensor.kron"], "count"),
        "tensor.kron.self_s": (self_s["tensor.kron"], "s"),
        "tensor.partial_trace.calls": (calls["tensor.partial_trace"], "count"),
        "tensor.partial_trace.self_s": (self_s["tensor.partial_trace"], "s"),
        "tensor.invert.calls": (calls["tensor.invert"], "count"),
        "tensor.invert.self_s": (self_s["tensor.invert"], "s"),
        "tensor.invert.failed": (failed["tensor.invert"], "count"),
        "invariant.self_s": (self_s["invariant"], "s"),
        "invariant.compute_ts.calls": (calls["invariant.compute_ts"], "count"),
        "invariant.braid_rep.busy_s": (busy["invariant.braid_rep"], "s"),
        "catalog.self_s": (self_s["catalog"], "s"),
        "catalog.check_ybe.calls": (calls["catalog.check_ybe"], "count"),
        "catalog.check_ybe.busy_s": (busy["catalog.check_ybe"], "s"),
        "eyb.self_s": (self_s["eyb"], "s"),
        "eyb.verify.calls": (verify_calls, "count"),
        "eyb.verify.busy_s": (busy["eyb.verify"], "s"),
        "eyb.verify.ok_ratio": (summary["verify_ok"] / verify_calls if verify_calls else 0.0,
                                "ratio"),
        "dressing.busy_s": (busy["dressing"], "s"),
        "tables.busy_s": (busy["tables"], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return out
