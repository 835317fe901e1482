"""In-memory span tracer for the shocklab package.

``Tracer.install()`` wraps every public function and every public method of
the classes defined in each shocklab module, and rebinds every module-level
name that refers to a wrapped function (``cli`` imports most of what it calls
by name, so patching the defining module alone would miss those calls).  It
also wraps scipy's ``minimize`` as ``inequalities`` sees it, so the
optimizer's results can be read.  Nothing under ``src/`` is edited: the
wrapping happens in the traced process only.

A span is (name, start, end, parent), stored in four parallel lists and kept
in memory until the process ends.  Spans nest strictly (one thread), so a
parent always has a smaller index than its children.
"""

import functools
import importlib
import inspect
import time

MODULES = ("gas", "profile", "weight", "solver", "functionals", "shift",
           "experiment", "inequalities", "config", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = [-1]
        self._observers = {}
        self.observed = {}

    def observe(self, name, fn):
        """Call fn(args, kwargs, result) after each call of span `name` ends
        and keep what it returns in ``self.observed[name]``."""
        self._observers[name] = fn
        self.observed[name] = []

    def __len__(self):
        return len(self.names)

    def wrap(self, name, fn):
        """`fn` wrapped so that each call records a span named `name`."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        observer = self._observers.get(name)
        seen = self.observed.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if observer is not None:
                seen.append(observer(args, kwargs, result))
            return result

        return traced

    def install(self, package="shocklab"):
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrapped = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        ineq = importlib.import_module(f"{package}.inequalities")
        ineq.minimize = self.wrap("inequalities.minimize", ineq.minimize)
        for mod in modules + [importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        return self

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(f"{prefix}.{attr}", obj.__func__)))

    def span_table(self, count=None):
        """{name: [calls, inclusive s, self s]} over the first `count` spans.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is a plain subtraction.
        """
        n = len(self.names) if count is None else count
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        table = {}
        for i in range(n):
            row = table.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return table
