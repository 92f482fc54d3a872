"""Library guards that no other test reaches: a node that is neither or
both of task/value, a negative link latency, a cut outside the block list,
and comparing a graph with something that is not one."""

import pytest

from pipecut.graph import ClusterSpec, Node, TaskGraph, TaskInfo, ValueInfo

from helpers import chain_graph
from test_blocks import make_blockset


@pytest.mark.parametrize("payload", [{}, {"task": TaskInfo("a"), "value": ValueInfo()}])
def test_node_is_exactly_one_kind(payload):
    with pytest.raises(ValueError, match="node 'x' must be exactly one of task/value"):
        Node("x", **payload)


def test_negative_link_latency():
    with pytest.raises(ValueError, match="link_latency_sec must be non-negative"):
        ClusterSpec(1, 1, 1, 1.0, 1.0, link_latency_sec=-1.0)


def test_boundary_cut_out_of_range():
    bs = make_blockset(chain_graph(4), k=2)
    assert bs.boundary_bytes(len(bs), 1) == 0
    for cut in (-1, len(bs) + 1):
        with pytest.raises(ValueError, match=f"cut {cut} out of range"):
            bs.boundary_bytes(cut, 1)


def test_graph_equality_with_other_types():
    assert (TaskGraph([], []) == 5) is False
    assert TaskGraph([], []).__eq__(5) is NotImplemented
