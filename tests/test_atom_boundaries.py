"""Exact atom and group boundaries, and the edges of cloned support.

The boundary rule is written out here from node sets alone: a group's inputs
are the values its tasks read that are model inputs or lie outside the
group, and its outputs are the values in the group that are model outputs or
are read by a task outside it. Every atom and random unions of atoms must
carry exactly these tuples, not just a consistent subset of them.
"""

import random

import pytest

from pipecut.atoms import build_atomic_subcomponents, mark_constant_tasks
from pipecut.generators import gen_bert_like

from helpers import random_layered_graph
from test_shared_rules import rich_graph


def expected_boundary(graph, node_ids):
    inputs = {vid for nid in node_ids if graph.nodes[nid].is_task
              for vid in graph.pred(nid)
              if vid in graph.inputs or vid not in node_ids}
    outputs = {vid for vid in node_ids if graph.nodes[vid].is_value
               and (vid in graph.outputs
                    or any(t not in node_ids for t in graph.consumers(vid)))}
    return tuple(sorted(inputs)), tuple(sorted(outputs))


def corpus():
    for seed in range(40):
        yield f"layered{seed}", random_layered_graph(random.Random(seed))
        yield f"rich{seed}", rich_graph(random.Random(seed))
    yield "bert", gen_bert_like(32, 3, 8, 50)


CORPUS = dict(corpus())


@pytest.fixture(params=sorted(CORPUS), scope="module")
def built(request):
    g = CORPUS[request.param]
    return g, build_atomic_subcomponents(g)


def test_corpus_exercises_clones():
    cloned = [name for name, g in CORPUS.items()
              if build_atomic_subcomponents(g).clone_origins]
    assert "bert" in cloned and sum(name.startswith("rich") for name in cloned) >= 10


class TestBoundaries:
    def test_every_atom(self, built):
        _, p = built
        for atom in p.atoms:
            assert (atom.input_values, atom.output_values) == \
                expected_boundary(p.graph, atom.node_ids)

    def test_random_unions(self, built):
        _, p = built
        rng = random.Random(len(p.atoms))
        n = len(p.atoms)
        groups = [range(n)] + [range(lo, rng.randint(lo + 1, n))
                               for lo in rng.sample(range(n), min(n, 5))]
        groups += [rng.sample(range(n), rng.randint(1, n)) for _ in range(10)]
        for group in groups:
            sub = p.merged(group, "G")
            assert sub.node_ids == frozenset().union(*(p.atoms[i].node_ids for i in group))
            assert (sub.input_values, sub.output_values) == \
                expected_boundary(p.graph, sub.node_ids)


def origin(p, nid):
    return p.clone_origins.get(nid, nid)


class TestCloneEdges:
    def test_edges_map_back_to_original_edges(self, built):
        g, p = built
        mapped = [(origin(p, a), origin(p, b)) for a, b in p.graph.edges]
        assert set(mapped) <= set(g.edges)
        assert set(mapped) == set(g.edges), "an original edge has no copy"
        assert {origin(p, nid) for nid in p.graph.nodes} == set(g.nodes)

    def test_each_copy_keeps_its_origins_support_edges(self, built):
        g, p = built
        constant = mark_constant_tasks(p.graph)
        for atom in p.atoms:
            anchor, = (t for t in atom.node_ids
                       if p.graph.nodes[t].is_task and not constant[t])
            support = {nid for nid in atom.node_ids
                       if nid != anchor and nid not in p.graph.inputs
                       and p.graph.producer(nid) != anchor}
            local = {origin(p, nid): nid for nid in support}
            assert len(local) == len(support)  # one copy per origin per atom
            for orig, copy in local.items():
                # out-edges: every origin edge into this support or to the anchor
                want = {local[d] for d in g.succ(orig) if d in local}
                want |= {anchor} & set(g.succ(orig))
                assert set(p.graph.succ(copy)) == want
                # in-edges of support stay inside the support, all of them kept
                assert {origin(p, v) for v in p.graph.pred(copy)} == set(g.pred(orig))
                assert set(p.graph.pred(copy)) <= support
