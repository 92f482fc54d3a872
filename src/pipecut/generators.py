"""Synthetic model graph builders.

Both builders emit graphs at task granularity (one task per fused op) with
per-sample FLOP counts and activation sizes, so the partitioning passes see
realistic imbalance: the transformer's vocabulary projection dominates late
layers, the CNN's early layers carry large spatial activations.
"""

from __future__ import annotations

from .graph import Node, TaskGraph, TaskInfo, ValueInfo

FLOAT_BYTES = 4


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.edges: list[tuple[str, str]] = []

    def value(self, vid: str, *, fixed: int = 0, per_sample: int = 0, param: bool = False) -> str:
        self.nodes.append(Node(vid, value=ValueInfo(
            fixed_bytes=fixed, bytes_per_sample=per_sample, is_param=param)))
        return vid

    def param(self, vid: str, elements: int) -> str:
        return self.value(vid, fixed=elements * FLOAT_BYTES, param=True)

    def task(self, tid: str, op: str, inputs: list[str], flops: float = 0.0,
             attrs: dict | None = None) -> str:
        self.nodes.append(Node(tid, task=TaskInfo(
            op=op, flops_per_sample=flops, attrs=attrs or {})))
        for vid in inputs:
            self.edges.append((vid, tid))
        return tid

    def out(self, tid: str, vid: str, *, fixed: int = 0, per_sample: int = 0) -> str:
        self.value(vid, fixed=fixed, per_sample=per_sample)
        self.edges.append((tid, vid))
        return vid

    def op(self, tid: str, kind: str, inputs: list[str], *, flops: float, out: int,
           weights: int = 0, attrs: dict | None = None) -> str:
        """One fused op: its parameter `{tid}.w` of `weights` floats, if any,
        added first and read last; the task; and its output `{tid}.out` of
        `out` floats per sample, whose id is returned."""
        if weights:
            inputs = [*inputs, self.param(f"{tid}.w", weights)]
        self.task(tid, kind, inputs, flops, attrs)
        return self.out(tid, f"{tid}.out", per_sample=out * FLOAT_BYTES)

    def build(self, inputs: list[str], outputs: list[str]) -> TaskGraph:
        return TaskGraph(self.nodes, self.edges, inputs, outputs)


def gen_bert_like(hidden: int, layers: int, seq_len: int, vocab: int) -> TaskGraph:
    """Transformer encoder with a tied vocabulary projection head.

    Parameter total is embeddings + layers * (12*hidden^2 + 13*hidden) plus
    the prediction head transform and vocabulary bias. The projection reuses
    the embedding table through a transpose, so the table value has two
    consumers on opposite ends of the graph.
    """
    if hidden < 1 or layers < 1 or seq_len < 1 or vocab < 1:
        raise ValueError("all generator dimensions must be positive")
    h, s, v = hidden, seq_len, vocab
    heads = max(1, h // 64)
    b = _Builder()

    ids = b.value("input_ids", per_sample=s * 8)
    # token + position + segment tables and the embedding layernorm
    emb_table = b.param("embedding.w", h * (v + s + 2) + 2 * h)
    emb = b.task("embedding", "embedding", [ids, emb_table], flops=float(s * h))
    x = b.out(emb, "embedding.out", per_sample=s * h * FLOAT_BYTES)

    for i in range(layers):
        p = f"L{i:03d}"
        qkv = b.op(f"{p}.attn_qkv", "matmul", [x], flops=6.0 * s * h * h,
                   out=3 * s * h, weights=3 * h * h + 3 * h)
        scores = b.op(f"{p}.attn_scores", "matmul", [qkv], flops=2.0 * s * s * h,
                      out=s * s * heads)
        probs = b.op(f"{p}.attn_softmax", "softmax", [scores], flops=5.0 * s * s * heads,
                     out=s * s * heads)
        ctx = b.op(f"{p}.attn_context", "matmul", [probs, qkv], flops=2.0 * s * s * h, out=s * h)
        proj = b.op(f"{p}.attn_proj", "matmul", [ctx], flops=2.0 * s * h * h,
                    out=s * h, weights=h * h + h)
        attn = b.op(f"{p}.attn_norm", "add_layernorm", [proj, x], flops=10.0 * s * h,
                    out=s * h, weights=2 * h)
        mid = b.op(f"{p}.mlp_in", "matmul", [attn], flops=8.0 * s * h * h,
                   out=4 * s * h, weights=4 * h * h + 4 * h)
        act = b.op(f"{p}.mlp_gelu", "gelu", [mid], flops=32.0 * s * h, out=4 * s * h)
        down = b.op(f"{p}.mlp_out", "matmul", [act], flops=8.0 * s * h * h,
                    out=s * h, weights=4 * h * h + h)
        x = b.op(f"{p}.mlp_norm", "add_layernorm", [down, attn], flops=10.0 * s * h,
                 out=s * h, weights=2 * h)

    x = b.op("head.transform", "matmul", [x], flops=2.0 * s * h * h + 10.0 * s * h,
             out=s * h, weights=h * h + 3 * h)

    # tied decoder: transpose of the embedding table, recomputable constant
    t = b.task("head.transpose", "transpose", [emb_table])
    table_t = b.out(t, "head.transpose.out", fixed=v * h * FLOAT_BYTES)
    bias = b.param("head.vocab_bias.w", v)
    t = b.task("head.vocab_proj", "matmul", [x, table_t, bias],
               flops=2.0 * s * h * v + float(s * v))
    logits = b.out(t, "head.vocab_proj.out", per_sample=s * v * FLOAT_BYTES)

    return b.build([ids], [logits])


_RESNET_BLOCKS = {50: (3, 4, 6, 3), 101: (3, 4, 23, 3), 152: (3, 8, 36, 3)}
_IMAGE_SIZE = 224


def gen_resnet_like(layers: int, width_factor: int = 1) -> TaskGraph:
    """Bottleneck residual CNN; filter counts scale with width_factor.

    Convolution parameters grow quadratically with width, the classifier
    linearly, matching the usual widened-ResNet construction.
    """
    if layers not in _RESNET_BLOCKS:
        raise ValueError(f"layers must be one of {sorted(_RESNET_BLOCKS)}")
    if width_factor < 1:
        raise ValueError("width_factor must be a positive integer")
    w = width_factor
    b = _Builder()

    def conv(tid: str, x: str, cin: int, cout: int, k: int, spatial: int) -> str:
        return b.op(tid, "conv", [x], flops=2.0 * k * k * cin * cout * spatial * spatial,
                    out=cout * spatial * spatial, weights=k * k * cin * cout + 2 * cout,
                    attrs={"k": k, "cin": cin, "cout": cout, "spatial": spatial})

    image = b.value("image", per_sample=3 * _IMAGE_SIZE * _IMAGE_SIZE * FLOAT_BYTES)
    x = conv("stem.conv", image, 3, 64 * w, 7, _IMAGE_SIZE // 2)
    x = b.op("stem.pool", "maxpool", [x], flops=9.0 * 64 * w * 56 * 56, out=64 * w * 56 * 56)

    in_c = 64 * w
    for stage, blocks in enumerate(_RESNET_BLOCKS[layers]):
        mid = 64 * w * (2 ** stage)
        out_c = 4 * mid
        spatial = 56 // (2 ** stage)
        for blk in range(blocks):
            p = f"s{stage}.b{blk:02d}"
            stride = 2 if (stage > 0 and blk == 0) else 1
            identity = x
            y = conv(f"{p}.conv1", x, in_c, mid, 1, spatial * stride)
            y = conv(f"{p}.conv2", y, mid, mid, 3, spatial)
            y = conv(f"{p}.conv3", y, mid, out_c, 1, spatial)
            if stride != 1 or in_c != out_c:
                identity = conv(f"{p}.downsample", x, in_c, out_c, 1, spatial)
            x = b.op(f"{p}.add", "add_relu", [y, identity],
                     flops=float(out_c * spatial * spatial), out=out_c * spatial * spatial)
            in_c = out_c

    x = b.op("head.pool", "avgpool", [x], flops=2.0 * in_c * 7 * 7, out=in_c)
    logits = b.op("head.fc", "linear", [x], flops=2.0 * in_c * 1000, out=1000,
                  weights=in_c * 1000 + 1000)

    return b.build([image], [logits])
