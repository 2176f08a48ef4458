"""Outside-in span tracer for the traced benchmark run.

The tracer replaces module attributes of the package with wrappers that
record one span per call: name, start, end, parent span and run id (the
index of the root span, one per command call). Spans are kept in compact
in-memory arrays and written out when the run ends. Nothing inside the
package changes; a wrapped attribute that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"


def covered_time(start: float, end: float, children: np.ndarray) -> float:
    """Length of the part of [start, end] covered by the union of the
    child intervals (an [N, 2] array of (start, end) rows)."""
    if len(children) == 0:
        return 0.0
    spans = np.clip(children, start, end)
    spans = spans[np.argsort(spans[:, 0], kind="stable")]
    reach = np.maximum.accumulate(spans[:, 1])
    previous = np.concatenate(([start], reach[:-1]))
    return float(np.sum(np.maximum(0.0, spans[:, 1] - np.maximum(spans[:, 0], previous))))


class Tracer:
    """Span recorder; ``wrap`` and ``install`` add the recording wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = array("b")
        self.observed: dict[str, dict[str, int]] = {}
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._run = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(counts, result, exc)``
        may add counts taken from the outcome to ``self.observed[name]``."""
        nid = self._name_id(name)
        counts = self.observed.setdefault(name, {})
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.starts)
            parent = stack[-1]
            if parent < 0:
                self._run = idx
            self.name_ids.append(nid)
            self.parents.append(parent)
            self.runs.append(self._run)
            self.failed.append(0)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.ends[idx] = perf_counter()
                stack.pop()
                self.failed[idx] = 1
                if observe is not None:
                    observe(counts, None, exc)
                raise
            self.ends[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(counts, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap ``module.attr`` for each (module, attr, name, observe) target.

        A missing attribute is recorded in ``absent`` and left alone.
        """
        for module, attr, name, observe in targets:
            where = f"{module.__name__}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(where)
                self._name_id(name)  # reported with zero calls
                continue
            setattr(module, attr, self.wrap(fn, name, observe))
            self.installed.append(where)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns."""
        return {
            "name_id": np.array(self.name_ids, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int32),
            "run": np.array(self.runs, dtype=np.int32),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-name totals plus the roots' self time.

        ``self_s`` is the total root duration minus the part of each root
        interval that its direct children cover; ``children_s`` sums the
        direct children's durations.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        layers = {}
        for nid, name in enumerate(self.names):
            mask = spans["name_id"] == nid
            times = duration[mask]
            p50, p99 = np.percentile(times, [50, 99]) if times.size else (0.0, 0.0)
            layers[name] = {
                "calls": int(times.size),
                "busy_s": float(np.sum(times)),
                "failed": int(np.count_nonzero(spans["failed"][mask])),
                "p50_us": float(p50) * 1e6,
                "p99_us": float(p99) * 1e6,
                **self.observed.get(name, {}),
            }
        roots = np.flatnonzero(spans["parent"] == -1)
        children = np.flatnonzero(spans["parent"] >= 0)
        by_parent = spans["parent"][children]
        order = np.argsort(by_parent, kind="stable")
        children, by_parent = children[order], by_parent[order]
        self_s = children_s = 0.0
        for root in roots:
            lo, hi = np.searchsorted(by_parent, [root, root + 1])
            kids = children[lo:hi]
            covered = covered_time(
                spans["start"][root],
                spans["end"][root],
                np.column_stack([spans["start"][kids], spans["end"][kids]]),
            )
            self_s += float(duration[root]) - covered
            children_s += float(np.sum(duration[kids]))
        return {
            "roots": int(len(roots)),
            "root_s": float(np.sum(duration[roots])),
            "self_s": self_s,
            "children_s": children_s,
            "layers": layers,
        }
