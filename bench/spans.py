"""Span recorder for the traced benchmark run.

The benchmark measures tempex's layers from outside: it wraps public
functions of the package and records one span (name, start, end, parent)
per call. A layer's self time is its span's duration minus the time its
child spans cover. Spans are kept in memory and written out when the run
ends.

Functions are wrapped where they are looked up, not only where they are
defined: `explainers` imports `classifier_forward`, `predict_proba` and
`target_score` from `nets` by name, and `metrics` imports `predict_proba`,
so every module-level binding of the original function inside the package
is replaced. `nets.gru_cell_step` is deliberately left alone: it runs T
times per direction per forward, and a span around it would cost more
than the step.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "tempex"


class Tracer:
    """Spans and counters of one traced run.

    `install()` wraps the targets; `uninstall()` restores every binding it
    replaced. Call it in a `finally` so a failure cannot leave the package
    patched.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.missing = []  # targets the package no longer defines
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, name, on_call=None, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if on_call is not None:
                on_call(tracer, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([label, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, targets):
        """targets: iterable of dicts with keys `where` ("module.attr" or
        "module.Class.method" relative to the package), `name` (span name,
        or a function of the call's positional args) and optional
        `on_call` and `on_return` hooks that update the counters.
        """
        for spec in targets:
            parts = spec["where"].split(".")
            module = importlib.import_module(f"{PACKAGE}.{parts[0]}")
            owner = module
            for part in parts[1:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner else None
            if original is None:
                self.missing.append(spec["where"])
                continue
            wrapper = self._wrap(original, spec["name"], spec.get("on_call"),
                                 spec.get("on_return"))
            if owner is not module:  # a method: one class attribute
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def total(self, names, outermost=False):
        """Summed duration of spans named in `names`. With outermost=True a
        span nested inside another span of the group is not counted
        again."""
        names = set(names)
        out = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            if outermost and self._inside(parent, names):
                continue
            out += end - start
        return out

    def _inside(self, idx, names):
        while idx >= 0:
            if self.spans[idx][0] in names:
                return True
            idx = self.spans[idx][3]
        return False

    def self_time(self, names):
        """Summed self time (duration minus child spans) of `names`."""
        names = set(names)
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return sum(end - start - covered[i]
                   for i, (name, start, end, _p) in enumerate(self.spans)
                   if name in names)

    def calls(self, names):
        names = set(names)
        return sum(1 for span in self.spans if span[0] in names)

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE
                                  or key.startswith(PACKAGE + "."))]
