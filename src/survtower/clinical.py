"""Clinical-record tower: item embedding plus a small pre-norm
multi-head self-attention encoder that pools to one feature vector.

A batch of n records enters as an (n, m) array of item indices (m
categorical fields, the same for every record) plus, per continuous
covariate, an (n,) array of values. Item indices become embedding-table
rows; each covariate becomes one extra token through a learned 1->d
projection, so the encoder sees an (n, m+p, d) token tensor for p
covariates and runs every record and every head in one batched pass.
Tokens are an unordered set: there is no positional encoding, and mean
pooling keeps the output permutation invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, VocabularyError
from .params import ParameterStore, uniform_fan_in


@dataclass
class FieldStats:
    min: float
    max: float
    mean: float
    std: float


@dataclass
class ClinicalVocabulary:
    """Dense item -> embedding-row index map."""

    items: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.items)

    def encode_items(self, items) -> np.ndarray:
        indices = []
        for item in items:
            if item not in self.items:
                raise VocabularyError(f"unknown clinical item {item!r}")
            indices.append(self.items[item])
        return np.asarray(indices, dtype=np.int64)


@dataclass
class ClinicalEncoderConfig:
    embed_dim: int = 48
    heads: int = 3
    layers: int = 5
    mlp_hidden: int = 192
    encoder: str = "attention"  # "attention" or "mlp" (ablation substitute)

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError(f"layer count must be >= 1, got {self.layers}")
        if self.heads < 1 or self.embed_dim < 1:
            raise ConfigError(f"heads and embed_dim must be >= 1, got {self.heads} and {self.embed_dim}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must split evenly over {self.heads} heads"
            )
        if self.encoder not in ("attention", "mlp"):
            raise ConfigError(f"unknown clinical encoder {self.encoder!r}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


def init_clinical_params(
    store: ParameterStore,
    config: ClinicalEncoderConfig,
    vocab: ClinicalVocabulary,
    continuous_fields: list[str],
    rng: np.random.Generator,
    dtype=np.float32,
):
    d, h = config.embed_dim, config.head_dim
    store.add("clinical.embed.weight", uniform_fan_in(rng, (vocab.size, d), d, dtype))
    for name in continuous_fields:
        store.add(f"clinical.cont.{name}.weight", uniform_fan_in(rng, (1, d), 1, dtype))
        store.add(f"clinical.cont.{name}.bias", np.zeros(d, dtype=dtype))

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
        # head j owns columns j*h:(j+1)*h of each projection; drawing q, k, v
        # head by head keeps the initial values of a given seed fixed
        draws = [uniform_fan_in(rng, (d, h), d, dtype) for _ in range(3 * config.heads)]
        for offset, name in enumerate(("wq", "wk", "wv")):
            store.add(f"{layer}.attn.{name}", np.concatenate(draws[offset::3], axis=1))
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
    covariates: dict[str, np.ndarray],
) -> ad.Tensor:
    """(n, m) item indices and {field: (n,)} covariates -> (n, m+p, d) tokens.

    Covariate tokens follow the item tokens in sorted field order; a field
    left out of ``covariates`` contributes no token.
    """
    tokens = [ad.gather_rows(store["clinical.embed.weight"], token_indices)]
    for name in sorted(covariates):
        values = np.asarray(covariates[name]).reshape(-1, 1, 1)
        w = store[f"clinical.cont.{name}.weight"]
        tokens.append(ad.add(ad.mul(w, values), store[f"clinical.cont.{name}.bias"]))
    return ad.concat(tokens, axis=1) if len(tokens) > 1 else tokens[0]


def multi_head_attention(store, config, x, layer_prefix):
    """Scaled dot-product self-attention of (n, m, d) tokens, all heads at once.

    The (d, d) projections are split into heads by reshaping their output
    to (n, m, heads, head_dim). Returns the (n, m, d) output and the
    (n, heads, m, m) attention weights.
    """
    n, m, d = x.shape
    heads, h = config.heads, config.head_dim

    def project(name, axes):
        out = ad.matmul(x, store[f"{layer_prefix}.attn.{name}"])
        return ad.transpose(ad.reshape(out, (n, m, heads, h)), axes)

    q = project("wq", (0, 2, 1, 3))    # (n, heads, m, h)
    k_t = project("wk", (0, 2, 3, 1))  # (n, heads, h, m)
    v = project("wv", (0, 2, 1, 3))
    logits = ad.mul(ad.matmul(q, k_t), 1.0 / np.sqrt(h))
    weights = ad.softmax(logits, axis=-1)
    merged = ad.reshape(ad.transpose(ad.matmul(weights, v), (0, 2, 1, 3)), (n, m, d))
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
