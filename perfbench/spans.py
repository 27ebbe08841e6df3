"""In-memory spans around calls into contextprob, recorded from outside.

``install`` replaces every public function and class constructor of the
contextprob modules with a wrapper that opens a span, calls through and
closes it. Nothing is wrapped unless ``install`` is called, so untraced runs
execute the library unchanged. Spans stay in memory and are written once,
when the run ends.

A span is ``(id, parent, name, start, end, op)``; ``parent`` is -1 for a
root and ``op`` groups the spans of one operation, whose root is
``bench.op``. Self time is a span's duration minus the time its children
cover. A span's layer is its name up to the first dot, so every part of an
op belongs to a library module, ``import``, ``python`` or ``bench`` (the
benchmark's own code).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "concepts", "hilbert", "entangle", "bell", "polytope", "semspace")


class Recorder:
    """Nested spans of one thread, kept in parallel lists."""

    def __init__(self) -> None:
        self.parents: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span, e.g. one measured by another process."""
        sid = len(self.names)
        self.parents.append(parent)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.ops.append(self.op)
        return sid

    def merge(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere, re-rooted under ``parent``."""
        base = len(self.names)
        for _sid, par, name, start, end, _op in spans:
            self.add(name, start, end, parent if par < 0 else base + par)

    def spans(self) -> list[list]:
        return [
            [i, self.parents[i], self.names[i], self.starts[i], self.ends[i], self.ops[i]]
            for i in range(len(self.names))
        ]


def dump(path, rows: list[list], extra: dict | None = None) -> None:
    """Write spans, and any extra fields, as one gzipped JSON object."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write(json.dumps({"spans": rows, **(extra or {})}))


def load(path) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _traced(name: str, fn, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)

    return traced


def install(rec: Recorder) -> None:
    """Wrap the public callables of every contextprob module.

    Functions are replaced in every module namespace that holds them, so
    calls between modules (``polytope`` calling ``bell``) are spanned too.
    Classes keep their identity; their ``__init__`` is wrapped instead.
    """
    package = importlib.import_module("contextprob")
    modules = {m: importlib.import_module(f"contextprob.{m}") for m in MODULES}
    replaced: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isclass(value):
                value.__init__ = _traced(name, value.__init__, rec)
            elif inspect.isfunction(value):
                replaced[id(value)] = _traced(name, value, rec)
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for _sid, parent, _name, start, end, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    """Module a span belongs to: the text before its first dot."""
    return name.split(".", 1)[0]


def op_totals(spans: list[list]) -> dict:
    """Self time per span name and per layer, calls, and op wall time, summed over ops.

    Spans outside any op (``op`` < 0) are set-up spans and are summed apart.
    A call made inside a ``bench.shape.<s>`` span is also counted under
    ``<name>.<s>``, so one function can be reported per input shape.
    """
    own = self_times(spans)
    name_s = defaultdict(float)
    layer_s = defaultdict(float)
    setup_name_s = defaultdict(float)
    setup_layer_s = defaultdict(float)
    calls = defaultdict(int)
    shape: list[str | None] = []
    wall = 0.0
    ops = set()
    for (_sid, parent, name, start, end, op), t in zip(spans, own):
        tag = shape[parent] if parent >= 0 else None
        if name.startswith("bench.shape."):
            tag = name.rsplit(".", 1)[1]
        shape.append(tag)
        if op < 0:
            setup_name_s[name] += t
            setup_layer_s[layer_of(name)] += t
            continue
        ops.add(op)
        if parent < 0:
            wall += end - start
        layer_s[layer_of(name)] += t
        keys = (name, f"{name}.{tag}") if tag else (name,)
        for key in keys:
            name_s[key] += t
            calls[key] += 1
    return {
        "ops": len(ops),
        "wall_s": wall,
        "name_s": dict(name_s),
        "layer_s": dict(layer_s),
        "setup_name_s": dict(setup_name_s),
        "setup_layer_s": dict(setup_layer_s),
        "calls": dict(calls),
    }


def parse_importtime(stderr: str) -> dict:
    """Import time of contextprob, numpy and scipy from ``-X importtime``.

    Each is the cumulative time, in seconds, of the package's outermost
    import entries, wherever in the tree they occur; numpy and scipy are
    part of contextprob's time when contextprob imports them.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
    totals = {"contextprob": 0.0, "numpy": 0.0, "scipy": 0.0}
    # Entries print when an import finishes, children before their parent,
    # so walking backwards visits each parent before its children.
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".", 1)[0]
        if root in totals and all(r != root for _, r in stack):
            totals[root] += cumulative
        stack.append((depth, root))
    return totals
