"""Named trainable parameters and initialization helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .tensor import Tensor

@dataclass
class Parameter:
    """A named tensor with a gradient slot. It starts trainable; whether it
    trains is its tensor's ``requires`` flag, which ``set_trainable`` sets."""

    name: str
    value: Tensor
    grad: Tensor | None = None

    def __post_init__(self):
        self.value.requires = True

    @property
    def trainable(self) -> bool:
        return self.value.requires

    def set_trainable(self, flag: bool) -> None:
        self.value.requires = flag
        if not flag:
            self.grad = None

    def assign(self, array: np.ndarray) -> None:
        """Replace the stored value in place (optimizer updates, checkpoint loads)."""
        if array.shape != self.value.array.shape:
            raise InvalidConfig(
                f"{self.name}: cannot assign shape {array.shape} over {self.value.array.shape}"
            )
        self.value = Tensor(np.ascontiguousarray(array), requires=self.value.requires)


class ParamTree:
    """Base of every parameter container. Its parameters are the
    ``Parameter``s among its dataclass fields, in declaration order (the
    order a dataclass ``__init__`` sets them), with nested trees and lists
    or tuples of them expanded in place; any other field (``None``, a
    config, a number) holds none. Checkpoint payload offsets and the
    optimizer's gradient norm follow this order."""

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        _collect(vars(self).values(), out)
        return out


def _collect(values, out: list[Parameter]) -> None:
    for v in values:
        if isinstance(v, Parameter):
            out.append(v)
        elif isinstance(v, ParamTree):
            _collect(vars(v).values(), out)
        elif isinstance(v, (list, tuple)):
            _collect(v, out)


class NoDraws:
    """Stands in for a Generator when every value it would draw is loaded
    over next: zeros of the asked size, no random stream."""

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.zeros(size)

    def standard_normal(self, size=None) -> np.ndarray:
        return np.zeros(size)


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype))


def normal_init(rng: np.random.Generator, shape, std: float, dtype) -> Tensor:
    return Tensor((rng.standard_normal(size=shape) * std).astype(dtype))
