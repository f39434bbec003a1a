"""Named parameter tensors with weight-decay flags and init helpers."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


class ParameterStore:
    """Ordered name -> Tensor map for one model.

    ``decay`` marks tensors included in the L2 penalty; normalization
    gains/biases opt out.
    """

    def __init__(self):
        self._params: dict[str, ad.Tensor] = {}
        self._decay: dict[str, bool] = {}

    def add(self, name: str, array: np.ndarray, decay: bool = True) -> ad.Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = ad.Tensor(array, requires_grad=True, dtype=array.dtype)
        self._params[name] = t
        self._decay[name] = decay
        return t

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def decays(self, name: str) -> bool:
        return self._decay[name]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def replica(self) -> "ParameterStore":
        """A store whose Tensors share this store's arrays and decay flags
        but have leaf nodes of their own, so its tape shares no node with
        this store's. An optimizer step rebinds ``data``: one step each."""
        twin = ParameterStore()
        for name, t in self._params.items():
            twin.add(name, t.data, self._decay[name])
        return twin

    def add_grads(self, replica: "ParameterStore"):
        """Add ``replica``'s gradients into this store's, this store's first."""
        for name, t in self._params.items():
            g = replica[name].grad
            if g is not None:
                t.grad = g if t.grad is None else t.grad + g

    def l2_penalty(self) -> ad.Tensor:
        """Sum of squared entries over every decayed parameter tensor, in
        registration order, as one ``sum_of_squares`` tape node."""
        decayed = [t for name, t in self._params.items() if self._decay[name]]
        if not decayed:
            raise ConfigError("no decayed parameters registered")
        return ad.sum_of_squares(decayed)


def uniform_fan_in(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    """Symmetric uniform init with bound 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
