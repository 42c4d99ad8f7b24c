"""Module/Parameter base classes and flat parameter-vector access."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np


class Parameter:
    """A trainable tensor: ``data`` plus an accumulated gradient ``grad``.

    ``name`` is informational (used in error messages and debugging dumps).
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class for layers and models.

    The contract:

    - ``forward(x)`` computes the output and caches whatever the backward
      pass needs.
    - ``backward(dy)`` consumes the gradient of the loss w.r.t. the output,
      *accumulates* parameter gradients into ``p.grad``, and returns the
      gradient w.r.t. the input. Layers with parameters (and containers)
      also take ``input_grad=False``: they then accumulate parameter
      gradients only and return ``None``, which is how training skips the
      input gradient of a model's first layer that nothing consumes.
    - ``parameters()`` yields every :class:`Parameter` in the subtree.

    ``train`` toggles training-time behaviour (dropout). Layers must be
    usable for repeated forward/backward cycles without re-allocation of
    parameters, since federated clients reuse one model object across rounds.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module (in a stable order)."""
        params: List[Parameter] = []
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Parameter):
                        params.append(item)
                    elif isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    # -- conveniences ------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. Dropout)."""
        self.training = mode
        for attr in vars(self).values():
            if isinstance(attr, Module):
                attr.train(mode)
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self._first_trainable = first_trainable(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        return backward_chain(self.layers, dy, None if input_grad else self._first_trainable)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


def first_trainable(layers: Sequence[Module]) -> int:
    """Index of the first layer that has parameters (``len(layers)`` if none)."""
    return next((i for i, layer in enumerate(layers) if layer.parameters()), len(layers))


def backward_chain(
    layers: Sequence[Module], dy: np.ndarray, first: Optional[int] = None
) -> Optional[np.ndarray]:
    """Backward through ``layers`` applied in order.

    With ``first=None`` this returns the gradient w.r.t. the chain's input.
    Otherwise ``first`` is :func:`first_trainable` of ``layers`` and that
    gradient is skipped: layer ``first`` accumulates only its parameter
    gradients (``input_grad=False``), the parameter-free layers before it
    (whose backward would only produce the input gradient) do not run, and
    the result is ``None``.
    """
    if first is None:
        for layer in reversed(layers):
            dy = layer.backward(dy)
        return dy
    for layer in reversed(layers[first + 1 :]):
        dy = layer.backward(dy)
    if first < len(layers):
        layers[first].backward(dy, input_grad=False)
    return None


def _param_list(source: Union[Module, Sequence[Parameter]]) -> Sequence[Parameter]:
    return source.parameters() if isinstance(source, Module) else source


def get_flat_params(source: Union[Module, Sequence[Parameter]]) -> np.ndarray:
    """Concatenate all parameters into one float64 vector.

    ``source`` is a module or its :meth:`Module.parameters` list (callers
    that already hold the list skip a second walk of the module tree). The
    ordering matches :meth:`Module.parameters` and is stable for a given
    architecture, which is what federated aggregation relies on.
    """
    params = _param_list(source)
    if not params:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([p.data.ravel() for p in params])


def set_flat_params(source: Union[Module, Sequence[Parameter]], flat: np.ndarray) -> None:
    """Write ``flat`` back into the parameters (inverse of get); ``source``
    is a module or its parameter list, as in :func:`get_flat_params`."""
    params = _param_list(source)
    flat = np.asarray(flat, dtype=np.float64)
    expected = sum(p.size for p in params)
    if flat.ndim != 1 or flat.size != expected:
        raise ValueError(f"expected flat vector of size {expected}, got shape {flat.shape}")
    offset = 0
    for p in params:
        chunk = flat[offset : offset + p.size]
        p.data[...] = chunk.reshape(p.shape)
        offset += p.size


def get_flat_grads(module: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one vector."""
    params = module.parameters()
    if not params:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([p.grad.ravel() for p in params])
