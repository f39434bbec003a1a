"""Clinical tower: embedding, attention, and encoder properties."""

import math

import numpy as np
import pytest

from survtower import autodiff as ad
from survtower import clinical as cl
from survtower.errors import ConfigError
from survtower.params import ParameterStore, uniform_fan_in
from survtower.train import TrainConfig


ITEMS = ["hist=adeno", "hist=squamous", "stage=II", "stage=IV"]


def make_vocab():
    return {v: i for i, v in enumerate(ITEMS)}


def small_config(**kw):
    defaults = dict(towers="textual", embed_dim=12, heads=3, layers=2, mlp_hidden=24)
    defaults.update(kw)
    return TrainConfig(**defaults).model_config().clinical


def build_store(config, vocab, rng=None, dtype=np.float64):
    store = ParameterStore()
    rng = rng or np.random.default_rng(0)
    cl.init_clinical_params(store, config, len(vocab), rng, dtype=dtype)
    return store


class TestVocabulary:
    def test_dense_sorted_indices(self):
        from survtower.synthetic import generate_synthetic

        vocab = generate_synthetic(3, 10).vocab
        assert sorted(vocab.values()) == list(range(len(vocab)))
        assert list(vocab) == sorted(vocab)


class TestEmbedding:
    def test_identity_weight_lookup(self):
        store = ParameterStore()
        store.add("clinical.embed.weight", np.eye(4))
        store.add("clinical.cont.age.weight", np.zeros((1, 4)))
        store.add("clinical.cont.age.bias", np.zeros(4))
        out = cl.embed_tokens(store, np.array([[2], [0]]), np.zeros(2))
        np.testing.assert_allclose(out.data[:, :1], np.eye(4)[[[2], [0]]])

    def test_shape_with_covariate_token(self):
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        tokens = np.array([[2, 0], [3, 1], [2, 1]])
        out = cl.embed_tokens(store, tokens, np.array([61.0, 55.0, 70.0]))
        assert out.shape == (3, 2 + 1, config.embed_dim)
        # the covariate token is age * weight + bias, record by record
        w = store["clinical.cont.age.weight"].data[0]
        np.testing.assert_array_equal(out.data[1, 2], 55.0 * w + store["clinical.cont.age.bias"].data)

    def test_gradient_hits_only_looked_up_rows(self):
        vocab = make_vocab()
        store = build_store(small_config(), vocab)
        idx = np.array([vocab["hist=adeno"], vocab["stage=II"]])
        out = cl.embed_tokens(store, np.stack([idx, idx[::-1]]), np.array([0.5, -0.5]))
        ad.backward(ad.sum_over(out))
        grad = store["clinical.embed.weight"].grad
        touched = {vocab["hist=adeno"], vocab["stage=II"]}
        for row in range(len(vocab)):
            if row in touched:
                np.testing.assert_array_equal(grad[row], 2.0)
            else:
                np.testing.assert_array_equal(grad[row], 0)


def attention_oracle(c, wq, wk, wv):
    """Straight scalar-loop self-attention, independent of the tensor ops."""
    m, d = c.shape
    h = wq.shape[1]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))]

    q = matmul(c.tolist(), wq.tolist())
    k = matmul(c.tolist(), wk.tolist())
    v = matmul(c.tolist(), wv.tolist())
    scale = 1.0 / math.sqrt(h)
    out = []
    for i in range(m):
        logits = [scale * sum(q[i][t] * k[j][t] for t in range(h)) for j in range(m)]
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        z = sum(exps)
        weights = [e / z for e in exps]
        out.append([sum(weights[j] * v[j][t] for j in range(m)) for t in range(h)])
    return np.array(out)


def attention_store(rng, d, heads, **weights):
    """One attention layer "L" with an identity output projection, so its
    output is the concatenation of the per-head attended values. ``wq``,
    ``wk`` or ``wv`` fixes that (d, d) block of ``attn.wqkv``."""
    store = ParameterStore()
    blocks = [weights[name] if name in weights else rng.standard_normal((d, d)) for name in ("wq", "wk", "wv")]
    store.add("L.attn.wqkv", np.concatenate(blocks, axis=1))
    store.add("L.attn_out.weight", np.eye(d))
    store.add("L.attn_out.bias", np.zeros(d))
    return store, small_config(embed_dim=d, heads=heads)


def qkv_blocks(store, prefix):
    """The query, key and value (d, d) column blocks of ``prefix.attn.wqkv``."""
    return np.split(store[f"{prefix}.attn.wqkv"].data, 3, axis=1)


class TestSelfAttention:
    def test_single_token_passes_value_through(self):
        rng = np.random.default_rng(1)
        store, config = attention_store(rng, 6, 3)
        x = ad.Tensor(rng.standard_normal((2, 1, 6)))
        out, _ = cl.multi_head_attention(store, config, x, "L")
        np.testing.assert_allclose(out.data, x.data @ qkv_blocks(store, "L")[2], rtol=1e-12)

    def test_zero_query_gives_uniform_attention(self):
        rng = np.random.default_rng(2)
        store, config = attention_store(rng, 6, 2, wq=np.zeros((6, 6)))
        x = ad.Tensor(rng.standard_normal((2, 5, 6)))
        out, _ = cl.multi_head_attention(store, config, x, "L")
        values = x.data @ qkv_blocks(store, "L")[2]
        expected = np.broadcast_to(values.mean(axis=1, keepdims=True), values.shape)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        # every record and every head of the batched pass against the scalar
        # loop on that record and that head's columns of wqkv's q, k, v blocks
        rng = np.random.default_rng(3)
        n, m, d, heads = 2, 3, 4, 2
        store, config = attention_store(rng, d, heads)
        x = rng.standard_normal((n, m, d))
        out, _ = cl.multi_head_attention(store, config, ad.Tensor(x, dtype=np.float64), "L")
        h = d // heads
        wq, wk, wv = qkv_blocks(store, "L")
        for i in range(n):
            for j in range(heads):
                cols = slice(j * h, (j + 1) * h)
                expected = attention_oracle(x[i], wq[:, cols], wk[:, cols], wv[:, cols])
                np.testing.assert_allclose(out.data[i, :, cols], expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        store, config = attention_store(rng, 4, 2)
        x = ad.Tensor(rng.standard_normal((3, 6, 4)))
        _, weights = cl.multi_head_attention(store, config, x, "L")
        assert weights.shape == (3, 2, 6, 6)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)


class TestEncoder:
    def _tokens(self, store, vocab, rng):
        idx = rng.integers(0, len(vocab), size=(2, 3))
        return cl.embed_tokens(store, idx, np.array([0.7, -0.2]))

    def test_zeroed_branches_reduce_to_pooled_layernorm(self):
        # residual-branch output projections are zero at init, so a fresh
        # encoder must equal the straight-line mean(LN(C)) reimplementation
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        rng = np.random.default_rng(5)
        tokens = self._tokens(store, vocab, rng)
        out = cl.encode_clinical(store, config, tokens)

        c = tokens.data
        mu = c.mean(axis=-1, keepdims=True)
        var = ((c - mu) ** 2).mean(axis=-1, keepdims=True)
        straight = ((c - mu) / np.sqrt(var + 1e-5)).mean(axis=1)
        np.testing.assert_allclose(out.data, straight, atol=1e-10)

    def test_output_width_independent_of_token_count(self):
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        for m in (1, 2, 4):
            tokens = cl.embed_tokens(store, np.arange(2 * m).reshape(2, m) % len(vocab), np.zeros(2))
            assert cl.encode_clinical(store, config, tokens).shape == (2, config.embed_dim)

    def test_permutation_invariance(self):
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        _randomize_branches(store, np.random.default_rng(6))
        idx = np.array([[0, 1, 2, 3], [3, 3, 1, 0]])
        ages = np.array([0.3, -1.0])
        out1 = cl.encode_clinical(store, config, cl.embed_tokens(store, idx, ages))
        out2 = cl.encode_clinical(store, config, cl.embed_tokens(store, idx[:, ::-1].copy(), ages))
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-9)

    def test_records_are_independent(self):
        # a record's features do not depend on the other records of its batch
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        _randomize_branches(store, np.random.default_rng(9))
        idx = np.array([[0, 1, 2], [3, 2, 1], [1, 1, 0]])
        ages = np.array([0.3, -1.0, 2.0])
        batched = cl.encode_clinical(store, config, cl.embed_tokens(store, idx, ages))
        for i in range(3):
            alone = cl.encode_clinical(
                store, config, cl.embed_tokens(store, idx[i:i + 1], ages[i:i + 1])
            )
            np.testing.assert_allclose(batched.data[i:i + 1], alone.data, atol=1e-12)

    def test_every_head_rows_sum_to_one(self):
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        _randomize_branches(store, np.random.default_rng(7))
        tokens = cl.embed_tokens(store, np.array([[0, 1, 2], [2, 2, 3]]), np.array([0.3, 1.2]))
        for i in range(config.layers):
            _, w = cl.multi_head_attention(store, config, tokens, f"clinical.layer{i}")
            assert w.shape == (2, config.heads, 4, 4)
            np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_tape_holds_one_attention_op_per_layer(self):
        # The age token takes gather_rows, mul, add and concat. Each layer
        # takes 13 ops: ln1, the wqkv matmul, attention, the attn_out matmul
        # and add, the residual add, ln2, the two MLP matmuls and adds, relu
        # and the residual add. The final layer_norm and mean_over close it.
        # Attention built from separate projections, reshapes, transposes
        # and softmax took 17 ops per layer for what is 4 here.
        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab)
        tokens = cl.embed_tokens(store, np.array([[0, 1, 2], [2, 2, 3]]), np.array([0.3, 1.2]))
        out = cl.encode_clinical(store, config, tokens)
        nodes, stack = {}, [out._node]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
        ops = sum(node.backward_fn is not None for node in nodes.values())
        assert (config.layers, ops, len(nodes) - ops) == (2, 4 + 13 * 2 + 2, len(store.names()))

    def test_mlp_substitute_encoder(self):
        vocab = make_vocab()
        config = small_config(textual_encoder="mlp")
        store = build_store(config, vocab)
        tokens = cl.embed_tokens(store, np.array([[0, 1], [1, 3]]), np.array([0.1, 0.5]))
        assert cl.encode_clinical(store, config, tokens).shape == (2, config.embed_dim)

    def test_head_split_validation(self):
        with pytest.raises(ConfigError, match="split evenly"):
            TrainConfig(embed_dim=10, heads=3)
        with pytest.raises(ConfigError, match="layers must be positive"):
            TrainConfig(layers=0)

    def test_projections_keep_per_head_draw_order(self):
        # head j's columns of wqkv's q, k, v blocks hold its q, k, v draws,
        # taken head by head, so a seed gives the same initial model as
        # per-head triplets
        config = small_config()
        store = build_store(config, make_vocab(), rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        d, h = config.embed_dim, config.head_dim
        uniform_fan_in(rng, (len(make_vocab()), d), d, np.float64)
        uniform_fan_in(rng, (1, d), 1, np.float64)
        for j in range(config.heads):
            cols = slice(j * h, (j + 1) * h)
            for block in qkv_blocks(store, "clinical.layer0"):
                expected = uniform_fan_in(rng, (d, h), d, np.float64)
                np.testing.assert_array_equal(block[:, cols], expected)


def _randomize_branches(store, rng):
    """Fill the zero-initialized residual projections with random values."""
    for name, t in store.items():
        if name.endswith(("attn_out.weight", "mlp.w2")):
            t.data = rng.standard_normal(t.data.shape).astype(t.data.dtype) * 0.3


class TestEncoderGradients:
    def test_gradcheck_through_encoder(self):
        from survtower import gradcheck as gc

        vocab = make_vocab()
        config = small_config()
        store = build_store(config, vocab, dtype=np.float64)
        rng = np.random.default_rng(8)
        _randomize_branches(store, rng)
        idx = np.array([[0, 2, 3], [1, 1, 2]])

        def forward():
            tokens = cl.embed_tokens(store, idx, np.array([0.4, -0.9]))
            out = cl.encode_clinical(store, config, tokens)
            return ad.sum_over(ad.mul(out, weights))

        weights = rng.standard_normal((2, config.embed_dim))
        failed = [f"{r.name}: {r.max_rel_error:.2e}"
                  for r in gc.check_gradients(forward, store.items(), rng, n_samples=3) if not r.passed]
        assert not failed, f"encoder gradient mismatch: {failed}"
