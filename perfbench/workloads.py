"""The benchmark workloads: seeded inputs, queries and correctness checks.

A workload is a dict of four functions:

* ``setup()`` builds, through public library calls, everything the workload
  holds before its first timed query, and returns it as a dict.
* ``inputs(held, seed)`` returns the list of queries for one pass.  The same
  seed gives the same queries; ``tables`` ignores the seed.
* ``run(held, query)`` answers one query with one public library call (the
  JSON round trip of ``verify`` is part of its query) and returns the value.
* ``check(held, queries, values)`` returns one bool per query, from the
  oracles named in README.md.  It is slow and runs outside the timed region.

``text(value)`` renders any value canonically, for digests.

Library functions are always looked up on their module at call time, never
bound here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random

from ybtrace import braid, catalog, dressing, eyb, invariant, ring, tables, tensor

TRANSFORMS = ("similarity", "transpose", "shift", "flip")
# off-diagonal slot of the similarity's Q, by the sign of the row's operator
SLOTS = {"+": (0, 1), "-": (1, 0)}


def text(value):
    """Canonical text of a query value, for digests and comparison."""
    if isinstance(value, ring.Scalar):
        return ring.format_scalar(value)
    if isinstance(value, tables.TableReport):
        return json.dumps([value.ok] + [[c.link, c.column, c.computed, c.match]
                                        for c in value.cells])
    if isinstance(value, tuple):  # verify: (reloaded matrix, verdict or None)
        matrix, verdict = value
        ok = None if verdict is None else (verdict.ok, verdict.condition)
        return json.dumps([tensor.matrix_to_json(matrix), ok])
    return json.dumps(value, sort_keys=True)


# -- tables: every cell of the paper's four tables ------------------------------


def _tables_setup():
    for name in catalog.CATALOG_NAMES:
        catalog.get_rmatrix(name)
    for name in ("d3_R21", "d4_R22"):
        dressing.preset_dressings(name)
    return {
        "entries": eyb.table1_entries(),
        "links": [braid.get_named_braid(name) for name in braid.NAMED_LINKS],
    }


def _tables_inputs(held, seed):
    cells = [("cell", entry, link) for entry in held["entries"] for link in held["links"]]
    return cells + [("table", k, None) for k in (2, 3, 4)]


def _tables_run(held, query):
    kind, what, link = query
    if kind == "cell":
        (row,) = invariant.classification_report(entries=[what], links=[link])
        return row
    return tables.run_table(what)


def _tables_check(held, queries, values):
    return [
        value.ok if kind == "table" else value["match"] != "no"
        for (kind, _, _), value in zip(queries, values)
    ]


# -- verify: candidate operators through the JSON round trip ---------------------


def _verify_setup():
    for name in catalog.CATALOG_NAMES:
        catalog.get_rmatrix(name)
    return {"ops": [(sign, e.build(sign)) for e in eyb.table1_entries() for sign in "+-"]}


def _unit_monomial(rng, ctx):
    """A seeded +-g over the row's first generator g: always a unit.

    Only the sign is seeded.  Which generator, which exponent and which slot
    of Q decide what a similarity costs (the exponent of g alone changes
    some similarities' cost threefold), so they are fixed, and one seed's
    candidates cost what another's do.
    """
    return ctx.scalar(rng.choice((1, -1))) * ctx.gen(ctx.generators[0], 1)


def _permuted(matrix, index_map):
    entries = {(index_map(r), index_map(c)): v for (r, c), v in matrix.entries.items()}
    return tensor.SquareMatrix(matrix.ctx, matrix.side, entries)


def _shift_pair(pos):
    hi, lo = divmod(pos, 2)
    return ((hi + 1) % 2) * 2 + (lo + 1) % 2


def _flip_pair(pos):
    hi, lo = divmod(pos, 2)
    return lo * 2 + hi


def _candidate(rng, op, kind, slot):
    """(R', mu', alpha', beta) for one YBE-preserving transformation of op.

    The similarity Q is elementary, with one monomial at ``slot``, so Q^-1 is
    known exactly and no seed can make a candidate arbitrarily dense.
    """
    ctx = op.ctx
    if kind == "similarity":
        m = _unit_monomial(rng, ctx)
        kappa = _unit_monomial(rng, ctx)
        one = ctx.one()
        q = tensor.SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, slot: m})
        q_inv = tensor.SquareMatrix(ctx, 2, {(0, 0): one, (1, 1): one, slot: -m})
        r = tensor.matmul(tensor.matmul(tensor.kron(q, q), op.r), tensor.kron(q_inv, q_inv))
        mu = tensor.matmul(tensor.matmul(q, op.mu), q_inv)
        return tensor.scalar_scale(r, kappa), mu, kappa * op.alpha, op.beta
    if kind == "transpose":
        return op.r.transpose(), op.mu.transpose(), op.alpha, op.beta
    if kind == "shift":
        mu = _permuted(op.mu, lambda k: (k + 1) % 2)
        return _permuted(op.r, _shift_pair), mu, op.alpha, op.beta
    return _permuted(op.r, _flip_pair), op.mu, op.alpha, op.beta


def _verify_inputs(held, seed):
    rng = random.Random(f"verify-{seed}")  # a str seed hashes alike on every run
    return [
        (kind, _candidate(rng, op, kind, SLOTS[sign]))
        for sign, op in held["ops"]
        for kind in TRANSFORMS
    ]


def _verify_run(held, query):
    kind, (r, mu, alpha, beta) = query
    payload = json.dumps(tensor.matrix_to_json(r))
    reloaded = catalog.load_rmatrix_json(r.ctx, json.loads(payload), checked=True)
    if kind == "flip":
        # the flip moves the trace condition to slot 1: YBE check only
        return reloaded, None
    return reloaded, eyb.verify_eyb(eyb.EnhancedOperator(reloaded, mu, alpha, beta))


def _verify_check(held, queries, values):
    return [
        reloaded == r and (verdict is None or verdict.ok)
        for (_, (r, _, _, _)), (reloaded, verdict) in zip(queries, values)
    ]


WORKLOADS = {
    "tables": dict(setup=_tables_setup, inputs=_tables_inputs, run=_tables_run,
                   check=_tables_check),
    "verify": dict(setup=_verify_setup, inputs=_verify_inputs, run=_verify_run,
                   check=_verify_check),
}
