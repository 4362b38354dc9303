"""Named trainable parameters and initialization helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .tensor import Tensor

@dataclass
class Parameter:
    """A named tensor with a gradient slot and a trainable flag."""

    name: str
    value: Tensor
    grad: Tensor | None = None
    trainable: bool = True

    def __post_init__(self):
        self.value.requires = self.trainable

    def set_trainable(self, flag: bool) -> None:
        self.trainable = flag
        self.value.requires = flag
        if not flag:
            self.grad = None

    def assign(self, array: np.ndarray) -> None:
        """Replace the stored value in place (optimizer updates, checkpoint loads)."""
        if array.shape != self.value.array.shape:
            raise InvalidConfig(
                f"{self.name}: cannot assign shape {array.shape} over {self.value.array.shape}"
            )
        self.value = Tensor(np.ascontiguousarray(array), requires=self.trainable)


def check_unique_names(params: list[Parameter]) -> None:
    names = [p.name for p in params]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise InvalidConfig(f"duplicate parameter names: {dupes}")


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
