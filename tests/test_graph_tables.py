"""The successor and predecessor tables of a TaskGraph do not depend on
the order its edges come in; the stored edges keep that order, and an edge
list with several faults is rejected for the first one in it."""

import random

import pytest

from pipecut.graph import TaskGraph

from helpers import random_layered_graph, task, value


class TestEdgeOrder:
    @pytest.mark.parametrize("seed", range(10))
    def test_shuffled_edges_give_the_same_sorted_tables(self, seed):
        g = random_layered_graph(random.Random(seed))
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        shuffled = TaskGraph(g.nodes.values(), edges, g.inputs, g.outputs)
        assert shuffled.edges == tuple(edges)
        for nid in g.nodes:
            assert shuffled.succ(nid) == g.succ(nid) == tuple(sorted(g.succ(nid)))
            assert shuffled.pred(nid) == g.pred(nid) == tuple(sorted(g.pred(nid)))

    @pytest.mark.parametrize("edges, message", [
        ([("x", "t"), ("t", "nowhere"), ("x", "t")], "edge ('t', 'nowhere') references"),
        ([("x", "t"), ("x", "t"), ("t", "nowhere")], "duplicate edge ('x', 't')"),
        ([("gone", "t"), ("t", "nowhere")], "edge ('gone', 't') references"),
    ])
    def test_the_first_fault_in_input_order_is_reported(self, edges, message):
        with pytest.raises(ValueError) as exc:
            TaskGraph([value("x"), task("t"), value("y")], edges)
        assert str(exc.value).startswith(message)
