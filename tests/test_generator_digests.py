"""The generated graph files, byte for byte. Parameter counts cannot catch
a renamed, reordered or resized node or edge; these digests can, and plans
of these graphs are fingerprinted downstream, so their order matters."""

import hashlib

import pytest

from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import save_graph

DIGESTS = {
    ("bert", 64, 2): "f00a0734c17a970d50b728b1e5b5f325b4b4a293bc520f1abbeb73a50561036a",
    ("bert", 1024, 24): "035bcaa031de9d29fb1ef445eb1792896b90f1e72e946af79f1747022ce12759",
    ("resnet", 50, 1): "2ad3eabf0fdc84115e9ee3c586a64e71eab191246e19a03d151d7a547d813d48",
    ("resnet", 50, 2): "9236fdaf17d234a35092fb9fe719de0887eaee77fea4bccec2af28c7ee033c0d",
    ("resnet", 101, 1): "6121e42b4a0cb431586c33a732dff423d6013ee7a06b1f64bd6bd0756a6afcdc",
    ("resnet", 101, 2): "e278ebee1008add498606e36a31191f44ab344754cf876fdf6c178194c6fa95b",
    ("resnet", 152, 1): "ef757de9809a04ba954162b4382c9c74692b2075e72c2a9ec7b5a952ad1b31b0",
    ("resnet", 152, 2): "108611c0681306c13ea53b74bd7ea703e4a36ffc74bd6acc39d8231abd4f8d80",
}
# bert 64x2 at the small test sizes; 1024x24 at the `generate` defaults
BERT_SIZES = {64: (16, 100), 1024: (512, 30522)}


@pytest.mark.parametrize("model,a,b", sorted(DIGESTS))
def test_saved_graph_digest(model, a, b, tmp_path):
    if model == "bert":
        graph = gen_bert_like(a, b, *BERT_SIZES[a])
    else:
        graph = gen_resnet_like(a, b)
    path = tmp_path / "g.json"
    save_graph(graph, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[model, a, b]
