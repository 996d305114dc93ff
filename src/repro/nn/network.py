"""Minimal module system for composing sparse layers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np


class Parameter:
    """A named learnable array."""

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.value.shape)

    def numel(self) -> int:
        return int(self.value.size)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


class Module:
    """Base class for layers; subclasses implement :meth:`forward`.

    Convolution layers take a rulebook cache
    (:class:`repro.nn.rulebook.RulebookCache`) from the call's ``cache=``
    kwarg.  The supported owner of the cache is
    :class:`repro.engine.session.InferenceSession`, which threads it
    through every consumer (forward, estimate, host model, compiler)
    rather than just the module tree.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._children: Dict[str, "Module"] = {}

    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        self._parameters[name] = param
        return param

    def register_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self) -> Iterator[Parameter]:
        """All parameters of this module and its children (depth-first)."""
        yield from self._parameters.values()
        for child in self._children.values():
            yield from child.parameters()

    def named_children(self) -> List[Tuple[str, "Module"]]:
        return list(self._children.items())

    def num_parameters(self) -> int:
        return sum(param.numel() for param in self.parameters())

    def forward(self, tensor, **kwargs):
        raise NotImplementedError

    def __call__(self, tensor, **kwargs):
        return self.forward(tensor, **kwargs)


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)
        for i, module in enumerate(self.modules):
            self.register_child(str(i), module)

    def append(self, module: Module) -> None:
        self.register_child(str(len(self.modules)), module)
        self.modules.append(module)

    def forward(self, tensor, **kwargs):
        for module in self.modules:
            tensor = module(tensor, **kwargs)
        return tensor

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self):
        return iter(self.modules)
