"""Layer spans recorded from outside the library.

:class:`Tracer` wraps the public functions and methods listed in
:data:`layers.SPANS` for the duration of one run and restores them
afterwards; nothing under ``src/`` knows it exists.  A wrapper is
installed wherever callers actually look the name up: on the class for
methods (every class in the hierarchy that defines the method itself),
and for functions on every loaded ``repro`` module attribute and
module-level dict value that *is* the original object, so by-name
imports such as ``repro.core.cost_model.generate_wrht`` and registry
dicts such as ``repro.serving.dispatch.COLLECTIVE_GENERATORS`` are
covered too.

Spans are kept in memory as ``[name, parent, start, end, depth]`` rows
(``parent`` is the index of the enclosing span, ``-1`` for a root;
``depth`` is the scheduler queue depth at the call for scheduler spans
and ``None`` otherwise) and written out by the caller when the run
ends.  Only layer boundaries are wrapped, never per-transfer or per-MRR
calls, so the overhead stays a small share of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import SPANS, Span

def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Name"`` / ``"pkg.mod:Class.meth"`` → (owner, attr, obj)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _load_all_repro_modules() -> None:
    """Import every ``repro`` submodule so no by-name import is missed.

    A module imported only after installation would bind the wrapper
    and keep it after :meth:`Tracer.uninstall`; importing everything
    up front makes the scan in :meth:`Tracer._patch_function`
    complete.  ``repro.__main__`` is skipped (it runs the CLI).
    """
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.transfers = 0
        self.steps = 0
        #: Distinct objects seen as ``self`` of spans with a role
        #: ("substrate", "contention"), keyed by id to keep them unique.
        self.seen: Dict[str, Dict[int, Any]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, Any, Any, bool]] = []
        self.active = False

    # -- recording ---------------------------------------------------------

    def _call(self, span: Span, fn: Callable, args: tuple,
              kwargs: dict) -> Any:
        if span.role is not None:
            self.seen.setdefault(span.role, {})[id(args[0])] = args[0]
        depth = args[0].queue_depth if span.queue_depth else None
        idx = len(self.spans)
        row = [span.name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
               depth]
        self.spans.append(row)
        self._stack.append(idx)
        row[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[3] = perf_counter()
            self._stack.pop()
        if span.counts_transfers:
            sched = result[0] if isinstance(result, tuple) else result
            self.transfers += sched.num_transfers
        elif span.counts_steps and not isinstance(result, list):
            self.steps += result.num_steps
        return result

    def _wrapper(self, span: Span, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(span, fn, args, kwargs)

        traced.__perfbench_original__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target in :data:`layers.SPANS` and start recording."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        _load_all_repro_modules()
        try:
            for span in SPANS:
                for target in span.targets:
                    owner, attr, obj = _resolve(target)
                    if inspect.isclass(owner):
                        self._patch_method(span, owner, attr)
                    else:
                        self._patch_function(span, obj)
        except BaseException:
            self.uninstall()
            raise
        self.active = True
        return self

    def _set(self, container: Any, key: Any, value: Any,
             is_item: bool) -> None:
        if is_item:
            original = container[key]
            container[key] = value
        else:
            original = vars(container)[key]
            setattr(container, key, value)
        self._patches.append((container, key, original, is_item))

    def _patch_method(self, span: Span, cls: type, attr: str) -> None:
        for c in _subclasses(cls):
            fn = c.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            self._set(c, attr, self._wrapper(span, fn), False)

    def _patch_function(self, span: Span, fn: Callable) -> None:
        wrapper = self._wrapper(span, fn)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, wrapper, False)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set(value, k, wrapper, True)

    def uninstall(self) -> None:
        """Stop recording and restore every patched name."""
        self.active = False
        for container, key, original, is_item in reversed(self._patches):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def _self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct
        children (calls are synchronous on one thread, so children
        never overlap each other)."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """``(calls, self seconds)`` per span name."""
        calls = {s.name: 0 for s in SPANS}
        self_s = {s.name: 0.0 for s in SPANS}
        for row, own in zip(self.spans, self._self_times()):
            calls[row[0]] += 1
            self_s[row[0]] += own
        return calls, self_s

    def depth_curve(self, name: str, bin_width: int = 250
                    ) -> List[Dict[str, float]]:
        """Mean self time of span ``name`` per queue-depth bin."""
        bins: Dict[int, List[float]] = {}
        for row, own in zip(self.spans, self._self_times()):
            if row[0] == name and row[4] is not None:
                bins.setdefault(row[4] // bin_width, []).append(own)
        return [{"depth_from": b * bin_width, "calls": len(v),
                 "mean_self_us": 1e6 * sum(v) / len(v)}
                for b, v in sorted(bins.items())]

    def objects(self, role: str) -> List[Any]:
        """Distinct objects seen as ``self`` of spans with ``role``."""
        return list(self.seen.get(role, {}).values())

    def dump(self) -> Dict[str, Any]:
        """The span table in a JSON-ready form."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {"columns": ["name", "parent", "start_s", "end_s",
                            "queue_depth"],
                "spans": [[n, p, s - origin, e - origin, d]
                          for n, p, s, e, d in self.spans]}


def original(fn: Callable) -> Optional[Callable]:
    """The unwrapped function behind a tracer wrapper (else ``None``)."""
    return getattr(fn, "__perfbench_original__", None)
