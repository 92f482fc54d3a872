"""`BlockSet` accepts only a dependency-ordered cover of the atoms: every
atom in exactly one block, and no block reading a value that a later block
owns. Anything else raises ValueError instead of returning wrong profiles."""

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import BlockSet
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import TaskGraph

from helpers import task, value
from test_shared_rules import BIG


@pytest.fixture(scope="module")
def bert():
    p = build_atomic_subcomponents(gen_bert_like(64, 2, 16, 100))
    assert len(p.atoms) == 23
    return p, CostModel(p.graph, CostModelConfig(), BIG)


class TestBlockSetChecks:
    def test_atoms_left_out(self, bert):
        p, model = bert
        with pytest.raises(ValueError, match="exactly one block"):
            BlockSet(p, model, (tuple(range(20)),))

    def test_atom_in_two_blocks(self, bert):
        p, model = bert
        with pytest.raises(ValueError, match="exactly one block"):
            BlockSet(p, model, (tuple(range(12)), tuple(range(11, 23))))

    def test_atom_out_of_range(self, bert):
        p, model = bert
        with pytest.raises(ValueError, match="exactly one block"):
            BlockSet(p, model, (tuple(range(22)), (23,)))

    def test_blocks_against_dependency_order(self, bert):
        p, model = bert
        with pytest.raises(ValueError, match="dependency order"):
            BlockSet(p, model, (tuple(range(11, 23)), tuple(range(11))))

    def test_graph_input_read_first_by_an_earlier_block(self):
        # two independent branches read the input x; x belongs to the atom
        # of its first reader, which may come second in a valid block order
        nodes = [value("x", per_sample=4), task("ta", flops=1.0), value("ya", per_sample=4),
                 task("tb", flops=1.0), value("yb", per_sample=4)]
        edges = [("x", "ta"), ("ta", "ya"), ("x", "tb"), ("tb", "yb")]
        p = build_atomic_subcomponents(TaskGraph(nodes, edges, ["x"], ["ya", "yb"]))
        model = CostModel(p.graph, CostModelConfig(), BIG)
        holder = p.owner_of_value("x")
        bs = BlockSet(p, model, ((1 - holder,), (holder,)))
        assert bs.profile(0, 1, 1, True) == model.profile(bs.blocks[0], 1, checkpointing=True)


class TestEmptyBlock:
    """Every block holds at least one atom: an empty block would list no
    atoms in `blocks.json` and could take a zero-work stage of its own."""

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_an_empty_block_is_refused(self, bert, where):
        # the other blocks are a valid cover, so only the empty one is wrong
        p, model = bert
        blocks = [tuple(range(11)), tuple(range(11, 23))]
        blocks.insert(where, ())
        with pytest.raises(ValueError, match="at least one atom"):
            BlockSet(p, model, tuple(blocks))
        assert len(BlockSet(p, model, (tuple(range(11)), tuple(range(11, 23))))) == 2
