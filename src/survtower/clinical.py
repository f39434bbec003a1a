"""Clinical-record tower: item embedding plus a small pre-norm
multi-head self-attention encoder that pools to one feature vector.

A batch of n records enters as an (n, m) array of item indices (m
categorical fields, the same for every record) plus an (n,) array of
z-scored ages. Item indices become embedding-table rows; the age becomes
one extra token through a learned 1->d projection, so the encoder sees
an (n, m+1, d) token tensor and runs every record and every head in one
batched pass: per layer, one QKV product and one fused attention op
(``autodiff.attention``).
Tokens are an unordered set: there is no positional encoding, and mean
pooling keeps the output permutation invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .params import ParameterStore, uniform_fan_in

# the self-attention encoder and its ablation substitute
ENCODERS = ("attention", "mlp")


@dataclass
class ClinicalVocabulary:
    """Dense item -> embedding-row index map: a cohort's ``field=value``
    items, sorted, at rows 0..size-1. An item's token is ``items[item]``,
    so an item from outside the cohort raises KeyError."""

    items: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ClinicalEncoderConfig:
    """The clinical tower's view of a ``TrainConfig``, built by its ``model_config``."""

    embed_dim: int
    heads: int
    layers: int
    mlp_hidden: int
    encoder: str  # one of ENCODERS

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


def init_clinical_params(
    store: ParameterStore,
    config: ClinicalEncoderConfig,
    vocab: ClinicalVocabulary,
    rng: np.random.Generator,
    dtype=np.float32,
):
    d, h = config.embed_dim, config.head_dim
    store.add("clinical.embed.weight", uniform_fan_in(rng, (vocab.size, d), d, dtype))
    store.add("clinical.cont.age.weight", uniform_fan_in(rng, (1, d), 1, dtype))
    store.add("clinical.cont.age.bias", np.zeros(d, dtype=dtype))

    if config.encoder == "mlp":
        store.add("clinical.mlp_enc.w1", uniform_fan_in(rng, (d, config.mlp_hidden), d, dtype))
        store.add("clinical.mlp_enc.b1", np.zeros(config.mlp_hidden, dtype=dtype))
        store.add("clinical.mlp_enc.w2", uniform_fan_in(rng, (config.mlp_hidden, d), config.mlp_hidden, dtype))
        store.add("clinical.mlp_enc.b2", np.zeros(d, dtype=dtype))
        return

    for i in range(config.layers):
        layer = f"clinical.layer{i}"
        store.add(f"{layer}.ln1.gain", np.ones(d, dtype=dtype), decay=False)
        store.add(f"{layer}.ln1.bias", np.zeros(d, dtype=dtype), decay=False)
        # column s*d + j*h + t is entry t of head j's query (s=0), key (1) or
        # value (2); one draw in (head, q/k/v) order keeps a seed's values
        qkv = uniform_fan_in(rng, (config.heads, 3, d, h), d, dtype)
        store.add(f"{layer}.attn.wqkv", qkv.transpose(2, 1, 0, 3).reshape(d, 3 * d))
        # residual-branch output projections start at zero for a stable start
        store.add(f"{layer}.attn_out.weight", np.zeros((d, d), dtype=dtype))
        store.add(f"{layer}.attn_out.bias", np.zeros(d, dtype=dtype))
        store.add(f"{layer}.ln2.gain", np.ones(d, dtype=dtype), decay=False)
        store.add(f"{layer}.ln2.bias", np.zeros(d, dtype=dtype), decay=False)
        store.add(f"{layer}.mlp.w1", uniform_fan_in(rng, (d, config.mlp_hidden), d, dtype))
        store.add(f"{layer}.mlp.b1", np.zeros(config.mlp_hidden, dtype=dtype))
        store.add(f"{layer}.mlp.w2", np.zeros((config.mlp_hidden, d), dtype=dtype))
        store.add(f"{layer}.mlp.b2", np.zeros(d, dtype=dtype))
    store.add("clinical.final_ln.gain", np.ones(d, dtype=dtype), decay=False)
    store.add("clinical.final_ln.bias", np.zeros(d, dtype=dtype), decay=False)


def embed_tokens(
    store: ParameterStore,
    token_indices: np.ndarray,
    ages: np.ndarray,
) -> ad.Tensor:
    """(n, m) item indices and (n,) ages -> (n, m+1, d) tokens, the age token last."""
    items = ad.gather_rows(store["clinical.embed.weight"], token_indices)
    values = np.asarray(ages).reshape(-1, 1, 1)
    age = ad.add(ad.mul(store["clinical.cont.age.weight"], values), store["clinical.cont.age.bias"])
    return ad.concat([items, age], axis=1)


def multi_head_attention(store, config, x, layer_prefix):
    """Scaled dot-product self-attention of (n, m, d) tokens, all heads at once.

    One (d, 3d) ``attn.wqkv`` product projects the tokens to queries, keys
    and values, ``ad.attention`` splits them into heads and attends as one
    tape op, and ``attn_out`` projects the merged heads. Returns the
    (n, m, d) output and the (n, heads, m, m) attention weights.
    """
    merged, weights = ad.attention(ad.matmul(x, store[f"{layer_prefix}.attn.wqkv"]), config.heads)
    out = ad.add(
        ad.matmul(merged, store[f"{layer_prefix}.attn_out.weight"]),
        store[f"{layer_prefix}.attn_out.bias"],
    )
    return out, weights


def encode_clinical(store: ParameterStore, config: ClinicalEncoderConfig, tokens: ad.Tensor) -> ad.Tensor:
    """Encode (n, m, d) token tensors to (n, d) clinical feature vectors."""
    if tokens.data.ndim != 3 or tokens.shape[-1] != config.embed_dim:
        raise ConfigError(
            f"tokens must have shape (n, m, {config.embed_dim}), got {tuple(tokens.shape)}"
        )
    if config.encoder == "mlp":
        pooled = ad.mean_over(tokens, (1,))
        hidden = ad.relu(ad.add(ad.matmul(pooled, store["clinical.mlp_enc.w1"]), store["clinical.mlp_enc.b1"]))
        return ad.add(ad.matmul(hidden, store["clinical.mlp_enc.w2"]), store["clinical.mlp_enc.b2"])

    x = tokens
    for i in range(config.layers):
        layer = f"clinical.layer{i}"
        normed = ad.layer_norm(x, store[f"{layer}.ln1.gain"], store[f"{layer}.ln1.bias"])
        attended, _ = multi_head_attention(store, config, normed, layer)
        x = ad.add(x, attended)
        normed2 = ad.layer_norm(x, store[f"{layer}.ln2.gain"], store[f"{layer}.ln2.bias"])
        hidden = ad.relu(ad.add(ad.matmul(normed2, store[f"{layer}.mlp.w1"]), store[f"{layer}.mlp.b1"]))
        x = ad.add(x, ad.add(ad.matmul(hidden, store[f"{layer}.mlp.w2"]), store[f"{layer}.mlp.b2"]))
    final = ad.layer_norm(x, store["clinical.final_ln.gain"], store["clinical.final_ln.bias"])
    return ad.mean_over(final, (1,))
