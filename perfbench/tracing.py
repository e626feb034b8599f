"""Spans recorded around calls into the program, from outside it.

A ``Tracer`` replaces a program function with a wrapper wherever a module
of the package binds it, so a call made through any import path is seen.
Each call becomes a span: a name, a start, an end, the span that was open
when it began (its parent) and the id of the benchmark operation it belongs
to.  Spans are kept in flat arrays in memory and written out when the run
ends.  Nothing in the program is edited; ``uninstall`` puts every original
function back.

A span's self time is its duration less the durations of its direct
children.  Calls run on one thread and nest, so the self times of a span's
whole subtree add up to the span's own duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

clock = time.perf_counter
PACKAGE = "inkspread"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.err = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        # counted at span boundaries, per kind of the operation they fall in
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._wraps: list[tuple] = []
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.err.append(0)
        self.end.append(0.0)
        self.start.append(0.0)
        self.stack.append(i)
        self.start[i] = clock()
        return i

    def _close(self, i: int, failed: bool) -> None:
        self.end[i] = clock()
        self.stack.pop()
        if failed:
            self.err[i] = 1

    def operation(self, name: str):
        """Context manager for one benchmark operation: a root span with a
        fresh operation id shared by every span recorded inside it."""
        return _Operation(self, self.name_id(name))

    def wrapper(self, fn, name: str, inside: dict[str, str] | None = None, on_result=None):
        """A traced stand-in for ``fn``.

        ``inside`` renames the span by the name of its parent span, so one
        function can be attributed to the layer that called it.
        ``on_result(counts, name, args, result)`` counts outcomes at the
        boundary into the counters of the enclosing operation's kind.
        """
        nid = self.name_id(name)
        renames = {self.name_id(p): self.name_id(n) for p, n in (inside or {}).items()}
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            if renames and tracer.parent[i] >= 0:
                tracer.name[i] = renames.get(tracer.name[tracer.parent[i]], nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(i, True)
                raise
            tracer._close(i, False)
            if on_result is not None:
                kind = tracer.names[tracer.name[tracer.stack[0] if tracer.stack else i]]
                on_result(tracer.counts[kind], tracer.names[tracer.name[i]], args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, **kw) -> None:
        """Trace ``owner.attr`` once ``install`` runs; ``owner`` is a module
        (every package module binding the same function is patched) or a
        class (the attribute is patched on the class)."""
        self._wraps.append((owner, attr, name, kw))

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for owner, attr, name, kw in self._wraps:
            fn = vars(owner)[attr]
            traced = self.wrapper(fn, name, **kw)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, key, traced)
                        self._patched.append((target, key, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._patched):
            setattr(target, key, fn)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def breakdown(self, ops: list[int] | None = None) -> dict:
        """Self time and call count per span name, per operation kind.

        ``ops`` limits the sums to those operation ids.  For each kind the
        self times of all its spans add up to the traced time of its root
        spans; ``residual_s`` is what is left over, rounding only.
        """
        a = self.arrays()
        if not len(a["name"]):
            return {}
        own = self.self_times()
        dur = a["end"] - a["start"]
        pick = np.ones(len(own), dtype=bool) if ops is None else np.isin(a["op"], ops)
        roots = pick & (a["parent"] < 0)
        kind_of_op = dict(zip(a["op"][roots].tolist(), a["name"][roots].tolist()))
        out: dict = {}
        for k in sorted(set(kind_of_op.values())):
            kind_ops = [o for o, kk in kind_of_op.items() if kk == k]
            sel = pick & np.isin(a["op"], kind_ops)
            traced = float(dur[roots & sel].sum())
            layers = {}
            for nid in np.unique(a["name"][sel]).tolist():
                m = sel & (a["name"] == nid)
                layers[self.names[nid]] = {"self_s": float(own[m].sum()), "calls": int(m.sum()),
                                           "failed": int(a["err"][m].sum())}
            out[self.names[k]] = {
                "traced_s": traced,
                "ops": len(kind_ops),
                "layers": layers,
                "residual_s": traced - sum(v["self_s"] for v in layers.values()),
            }
        return out

    def write(self, path: Path) -> None:
        """Spans as columns, with the name table, in one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Operation:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.op_id += 1
        self.i = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.i, exc_type is not None)
        return False
