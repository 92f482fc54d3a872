"""The node loader's fast path on numbers and objects at the edge of validity.

`_node_from_json` first tests each field for the JSON type a good value has
and builds no message for it; anything else goes through `check_keys` and
`parse_amount`. Each case here must load to the same node (same repr, so 4
and 4.0 differ) or fail with the same `ParseError` text as the reference
loader in `test_graph_io.py`, which spells out the rules with no fast path.
A few outcomes are also written out, so the rules themselves are pinned.
"""

import math
from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest

from pipecut.graph import Node, ParseError, TaskInfo, ValueInfo, _node_from_json

from test_graph_io import reference_node_from_json


class Frozen(Mapping):
    """A read-only mapping that is not a dict."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


EDGE_NUMBERS = [True, False, -0.0, 0.0, 0, math.nan, math.inf, -math.inf, 2**1024,
                -(2**1024), 1e308, -1e308, 3, 3.0, 3.5, -3, 2**53 + 1, float(2**53)]
BYTE_FIELDS = ["fixed_bytes", "bytes_per_sample"]


def task_doc(**payload):
    return {"id": "t", "kind": "task", "task": {"op": "mm", **payload}}


def value_doc(**payload):
    return {"id": "v", "kind": "value", "value": payload}


def cases():
    for raw in EDGE_NUMBERS:
        yield f"flops={raw!r}", task_doc(flops_per_sample=raw)
        for name in BYTE_FIELDS:
            yield f"{name}={raw!r}", value_doc(**{name: raw})
    for wrap in (Frozen, MappingProxyType, OrderedDict):
        kind = wrap.__name__
        yield f"{kind} task payload", {"id": "t", "kind": "task",
                                       "task": wrap({"op": "mm", "flops_per_sample": 2.0})}
        yield f"{kind} value payload", {"id": "v", "kind": "value",
                                        "value": wrap({"fixed_bytes": 8, "is_param": True})}
        yield f"{kind} attrs", task_doc(attrs=wrap({"h": 2}))
        yield f"{kind} node", wrap({"id": "v", "kind": "value", "value": {"fixed_bytes": 4}})
        yield f"{kind} payload, unknown field", {"id": "v", "kind": "value",
                                                 "value": wrap({"bytes": 8})}
        yield f"{kind} payload, missing op", {"id": "t", "kind": "task",
                                              "task": wrap({"attrs": {}})}
        yield f"{kind} node, unknown field", wrap({"id": "v", "kind": "value", "x": 1})
    yield "both fields bad", value_doc(fixed_bytes=3.5, bytes_per_sample=math.nan)
    yield "bad flag before bad bytes", value_doc(fixed_bytes=-1, is_param=1)
    yield "bad op before bad flops", task_doc(op="", flops_per_sample=-1.0)


CASES = dict(cases())


def outcome(parse, doc):
    """The node and its repr, or the error's type and message. Neither
    loader changes its input, so both read the same document."""
    try:
        node = parse(doc)
    except ParseError as exc:
        return ParseError, str(exc)
    return node, repr(node)


@pytest.mark.parametrize("name", list(CASES))
def test_matches_the_reference(name):
    doc = CASES[name]
    assert outcome(_node_from_json, doc) == outcome(reference_node_from_json, doc)


def test_cases_reach_both_outcomes():
    results = [outcome(_node_from_json, doc) for doc in CASES.values()]
    assert sum(isinstance(r[0], Node) for r in results) >= 30
    assert sum(r[0] is ParseError for r in results) >= 30


class TestPinned:
    @pytest.mark.parametrize("raw", [-0.0, 0, 3, 3.0, 1e308, float(2**53)])
    def test_flops_load_as_float(self, raw):
        info = _node_from_json(task_doc(flops_per_sample=raw)).task
        assert type(info.flops_per_sample) is float
        assert repr(info.flops_per_sample) == repr(float(raw))

    @pytest.mark.parametrize("raw, want", [(-0.0, 0), (0.0, 0), (3.0, 3), (3, 3),
                                           (1e308, int(1e308)), (2**53 + 1, 2**53 + 1)])
    @pytest.mark.parametrize("name", BYTE_FIELDS)
    def test_bytes_load_as_int(self, name, raw, want):
        got = getattr(_node_from_json(value_doc(**{name: raw})).value, name)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("raw, message", [
        (True, "must be a number, got True"),
        (False, "must be a number, got False"),
        (math.nan, "must be finite and non-negative, got nan"),
        (math.inf, "must be finite and non-negative, got inf"),
        (-math.inf, "must be finite and non-negative, got -inf"),
        (2**1024, f"must be finite and non-negative, got {2**1024!r}"),
        (-3, "must be finite and non-negative, got -3"),
    ])
    def test_rejected_numbers(self, raw, message):
        with pytest.raises(ParseError) as err:
            _node_from_json(task_doc(flops_per_sample=raw))
        assert str(err.value) == f"node 't': flops_per_sample {message}"
        with pytest.raises(ParseError) as err:
            _node_from_json(value_doc(bytes_per_sample=raw))
        assert str(err.value) == f"node 'v': bytes_per_sample {message}"

    def test_fractional_bytes(self):
        with pytest.raises(ParseError) as err:
            _node_from_json(value_doc(fixed_bytes=3.5))
        assert str(err.value) == "node 'v': fixed_bytes must be a whole number, got 3.5"

    def test_mappings_load_as_dicts(self):
        payload = Frozen({"op": "mm", "attrs": MappingProxyType({"h": 2})})
        node = _node_from_json({"id": "t", "kind": "task", "task": payload})
        assert node == Node("t", task=TaskInfo("mm", 0.0, {"h": 2}))
        assert type(node.task.attrs) is dict
        doc = Frozen({"id": "v", "kind": "value", "value": Frozen({"fixed_bytes": 4})})
        node = _node_from_json(doc)
        assert node == Node("v", value=ValueInfo(4))

    def test_non_mapping_pay_node_from_json(self):
        with pytest.raises(ParseError) as err:
            _node_from_json({"id": "v", "kind": "value", "value": [["fixed_bytes", 4]]})
        assert str(err.value) == "node 'v' value: expected an object, got list"
