"""Named parameter storage with structural group tags.

Every parameter is a float64 Tensor registered under a unique dotted name
and tagged with one of five groups. The groups drive the optimizer's
group filter (full tuning updates all of them, efficient tuning a subset)
and the teacher snapshot (which drops the reconstruction head and mask
token). `model.parameter_layout` assigns each group.
"""
from __future__ import annotations

from .autodiff import Tensor, detach

GROUPS = ("backbone", "adapter", "seg_head", "rec_head", "mask_token")


class ParamStore:
    """Insertion-ordered mapping name -> (Tensor, group)."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, tensor: Tensor, group: str) -> Tensor:
        if group not in GROUPS:
            raise ValueError(f"unknown parameter group '{group}' (expected one of {GROUPS})")
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name '{name}'")
        if not isinstance(tensor, Tensor):
            tensor = Tensor(tensor)
        self._tensors[name] = tensor
        self._groups[name] = group
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"no parameter named '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return self._tensors.values()

    def entries(self) -> list[tuple]:
        """(name, shape, group) of every parameter, in store order."""
        return [(n, t.shape, self._groups[n]) for n, t in self._tensors.items()]

    def group_of(self, name: str) -> str:
        return self._groups[name]

    def group_names(self, group: str) -> list[str]:
        return [n for n, g in self._groups.items() if g == group]

    def subset(self, names) -> "ParamStore":
        """New store holding the same Tensor objects, in the given order."""
        out = ParamStore()
        for n in names:
            out.add(n, self[n], self._groups[n])
        return out

    def frozen_except(self, groups) -> "ParamStore":
        """New store over the same arrays; only `groups` keep requiring gradients.

        Every other entry is a gradient-free alias (`autodiff.detach`), so a
        tape records no operation that depends on those entries alone.
        """
        out = ParamStore()
        for n, t in self._tensors.items():
            g = self._groups[n]
            out.add(n, t if g in groups else detach(t), g)
        return out

    def clone(self) -> "ParamStore":
        """Deep copy: fresh Tensors, values bit-identical, grads dropped."""
        out = ParamStore()
        for n, t in self._tensors.items():
            c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out.add(n, c, self._groups[n])
        return out

    def count_by_group(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for n, t in self._tensors.items():
            g = self._groups[n]
            counts[g] = counts.get(g, 0) + t.data.size
        return counts

    def snapshot_bytes(self, names=None) -> dict[str, bytes]:
        """Raw value bytes per name; used for bit-identity checks."""
        keys = self.names() if names is None else list(names)
        return {n: self._tensors[n].data.tobytes() for n in keys}

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None
