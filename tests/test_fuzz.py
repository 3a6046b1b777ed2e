"""Malformed input: the braid and scalar parsers and the JSON loaders raise
only library errors.

Each JSON case starts from a document the matching writer emits, then
replaces one node with an arbitrary JSON value or drops one key, so that
the loaders see input that is wrong in one place at every depth.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybtrace.braid import parse_braid
from ybtrace.dressing import diagonal_spec_from_json, diagonal_spec_to_json, preset_dressings
from ybtrace.errors import YbtraceError
from ybtrace.eyb import eyb_from_json, eyb_to_json, get_table1_eyb
from ybtrace.ring import ScalarContext, context_from_json, context_to_json
from ybtrace.ring import scalar_from_json, scalar_to_json
from ybtrace.tensor import matrix_from_json, matrix_to_json

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["1/2", "-3", "1,2", "q", "1e9", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, prefix + (k,))


def _mutated(doc, data):
    """A copy of doc with one node replaced, or one key of an object dropped."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _only_library_errors(load, *args):
    try:
        load(*args)
    except YbtraceError:
        pass


ROOT_CTX = ScalarContext(("p", "q"), (("sqrt_1mq2", "1-q^2"),))
OP = get_table1_eyb("R2.1", 1)
PRESET = preset_dressings("d3_R21")

CASES = {
    "scalar": (
        scalar_to_json(ROOT_CTX.parse("2/3*p^-1*q - i*sqrt_1mq2 + q^(1/2)")),
        lambda obj: scalar_from_json(ROOT_CTX, obj),
    ),
    "matrix": (matrix_to_json(OP.r), lambda obj: matrix_from_json(OP.ctx, obj)),
    "context": (context_to_json(ROOT_CTX), context_from_json),
    "operator": (eyb_to_json(OP), lambda obj: eyb_from_json(OP.ctx, obj)),
    "diagonal spec": (
        diagonal_spec_to_json(PRESET.spec),
        lambda obj: diagonal_spec_from_json(PRESET.ctx, obj),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unmutated_documents_load(name):
    doc, load = CASES[name]
    load(doc)


@pytest.mark.parametrize("name", sorted(CASES))
@FUZZ
@given(data=st.data())
def test_json_loaders_raise_only_library_errors(name, data):
    doc, load = CASES[name]
    _only_library_errors(load, _mutated(doc, data))


@pytest.mark.parametrize("name", sorted(CASES))
@FUZZ
@given(value=json_values)
def test_json_loaders_reject_arbitrary_values(name, value):
    _only_library_errors(CASES[name][1], value)


@FUZZ
@given(text=st.text(max_size=20), strands=st.none() | st.integers())
def test_parse_braid_raises_only_library_errors(text, strands):
    _only_library_errors(parse_braid, text, strands)


# scalar text drawn from its own tokens, so that powers, products and
# nesting are reached, and from arbitrary characters
SCALAR_TOKENS = ["1", "2", "99999", "q", "p", "i", "sqrt_1mq2", "+", "-", "*", "/",
                 "^", "(", ")", "(1/2)", " "]
scalar_texts = st.text(max_size=20) | st.lists(
    st.sampled_from(SCALAR_TOKENS), max_size=20).map("".join)


@FUZZ
@given(text=scalar_texts)
def test_parse_scalar_raises_only_library_errors(text):
    _only_library_errors(ROOT_CTX.parse, text)
