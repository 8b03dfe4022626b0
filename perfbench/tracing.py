"""Span recorder that wraps the public functions of each crmfeas layer.

Nothing in the package changes: :meth:`Tracer.install` replaces module
attributes and class methods with timing wrappers and :meth:`Tracer.remove`
puts the originals back. Every call becomes one span (name, parent, start,
end) kept in compact arrays; a layer's self time is its span's duration minus
the durations of its direct children. :meth:`Tracer.save` writes the spans
out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import METHODS


def _modules():
    # crmfeas/__init__ rebinds the name ``circumcenter`` to the function, so
    # submodules are looked up in sys.modules rather than as attributes
    import crmfeas  # noqa: F401  (loads every submodule)

    return {name: sys.modules[f"crmfeas.{name}"]
            for name in ("sets", "circumcenter", "methods", "product_space", "instances")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.basis_ranks: list[int] = []
        self.iterations: dict[str, dict[str, int]] = {
            "methods": dict.fromkeys(METHODS, 0),
            "product_space": dict.fromkeys(METHODS, 0),
        }

    # --- recording ----------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, on_result=None):
        # a class attribute inherited from ConvexSet is shadowed, then deleted
        self._restore.append((owner, attr, vars(owner).get(attr) if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def install(self):
        """Wrap every layer boundary named in the benchmark README."""
        mods = _modules()
        sets, ps = mods["sets"], mods["product_space"]
        pkg = sys.modules["crmfeas"]

        as_point = sets.as_point
        for mod in (*mods.values(), pkg):
            if getattr(mod, "as_point", None) is as_point:
                self._patch(mod, "as_point", "sets.as_point")

        def count(layer):
            def hook(args, trace):
                self.iterations[layer][args[-1].method.value] += trace.iterations
            return hook

        def rank(args, result):
            self.basis_ranks.append(result.basis_rank)

        for owner in (mods["circumcenter"], mods["methods"], ps, pkg):
            self._patch(owner, "circumcenter", "circumcenter", rank)
        for owner in (mods["methods"], pkg):
            self._patch(owner, "run", "methods.run", count("methods"))
        for owner in (ps, pkg):
            self._patch(owner, "run_prod", "product_space.run_prod", count("product_space"))
        for fn in ("gen_soc_instance", "gen_polyhedral_instance"):
            for owner in (mods["instances"], pkg):
                self._patch(owner, fn, "instances.generate")
        for owner in (mods["instances"], pkg):
            self._patch(owner, "gen_start", "instances.gen_start")

        self._patch(sets.AffineSubspace, "__init__", "sets.affine.build")
        for cls, label in ((sets.AffineSubspace, "affine"), (sets.SecondOrderCone, "soc"),
                           (sets.Ball, "ball"), (sets.Box, "box"), (sets.Halfspace, "halfspace")):
            self._patch(cls, "project", f"sets.{label}.project")
        self._patch(sets.AffineSubspace, "reflect", "sets.affine.reflect")
        self._patch(ps.ProductSet, "project", "product_space.W.project")
        self._patch(ps.DiagonalSubspace, "project", "product_space.D.project")
        self._patch(ps.DiagonalSubspace, "reflect", "product_space.D.reflect")

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # --- results ------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        ids, parent, start, end = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=ids.size)
        self_time = duration - children
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[nid]), float(busy[nid])) for nid, name in enumerate(self.names)}

    def save(self, path) -> None:
        ids, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)
