"""Span recording for the benchmark's traced runs.

A traced run replaces the public functions listed in ``TRACED`` with
wrappers that record one span (id, parent, name, start, end) per call and
read a few counts from the returned object.  The wrappers are installed
into every loaded ``misstab`` module namespace that refers to the
function, so calls the library makes to its own public functions (the CLI
calling ``fit_all``, ``fit_all`` calling ``fit_model``, ...) are seen too.
Nothing inside ``src/misstab`` changes.  ``collapse_cross`` is not wrapped:
it runs several times per EM iteration, so spans around it would cost more
than the work they measure; the benchmark times it on its own instead.

Spans stay in memory until the run ends and are then written out once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _fit_info(fit):
    return {
        "method": fit.method,
        "boundary": bool(fit.boundary),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
    }


def _verdict_info(verdict):
    records = verdict.records
    return {
        "queries": len(records),
        "undefined": sum(1 for r in records if r.membership == "undefined"),
    }


def _summary_info(summary):
    return {
        "replicates": int(summary.n_replicates),
        "excluded": int(summary.overall_excluded),
    }


# (module, function, reader of counts from the returned object, keep the
# returned object for the probes that run after the pass)
TRACED = (
    ("misstab.cli", "main", None, False),
    ("misstab.tables", "builtin_dataset", None, False),
    ("misstab.fitting", "fit_all", None, False),
    ("misstab.fitting", "fit_model", _fit_info, True),
    ("misstab.fitting", "fit_closed_form", None, False),
    ("misstab.fitting", "fit_em", _fit_info, False),
    ("misstab.models", "build_design",
     lambda d: {"bytes": int(d.columns.nbytes)}, False),
    ("misstab.odds", "assess", _verdict_info, False),
    ("misstab.bootstrap", "bootstrap_assess", _summary_info, False),
    ("misstab.bootstrap", "resample", None, True),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans; ``label`` tags each span with the pass it ran in."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, label, info]
        self.kept = []  # (name, label, returned object)
        self.label = None
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, keep=False, info=None, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, name, 0.0, 0.0, self.label, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span[6] = info(result)
        if keep:
            self.kept.append((name, self.label, result))
        return result

    def _wrapper(self, name, fn, info, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, keep=keep, info=info, **kwargs)

        return traced

    def install(self):
        """Replace every reference to a traced function in the package."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "misstab" or key.startswith("misstab.")
        ]
        for module_name, attr, info, keep in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            wrapper = self._wrapper(name, original, info, keep)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_times(self):
        """Seconds of each span not covered by its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        return own

    def dump(self):
        return {
            "fields": ["id", "parent", "name", "start", "end", "label",
                       "info"],
            "spans": self.spans,
        }
