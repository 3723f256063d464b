"""Outside-in tracer: wraps public functions of the package from the
benchmark's side, so the program itself carries no tracing code.

Each target ``module.function`` is replaced in every package namespace that
bound the same object (``from .solver import solve_auxiliary`` in
``theorems`` binds it a second time), and restored afterwards.  A stack of
open spans gives self time: a span's duration minus the durations of the
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class MissingTarget(LookupError):
    """A traced layer no longer exists under the expected name."""


class Tracer:
    def __init__(self, package: str, targets, hooks: dict[str, Callable] | None = None):
        self.package = package
        self.targets = tuple(targets)
        # name -> hook(arguments, result, counters), run after the call returns;
        # arguments maps parameter names to the values of the call
        self.hooks = hooks or {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        for table in (self.calls, self.self_s, self.total_s, self.counters):
            table.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        hook = self.hooks.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in wrapped children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result, self.counters)
            return result

        return traced

    def _namespaces(self):
        prefix = self.package + "."
        return [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == self.package or mod_name.startswith(prefix))
        ]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        originals = {}
        for name in self.targets:
            mod_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{self.package}.{mod_name}")
            func = getattr(module, attr, None)
            if not callable(func):
                raise MissingTarget(f"{self.package}.{name} is not a function of the package")
            originals[name] = func
        unhooked = sorted(set(self.hooks) - set(self.targets))
        if unhooked:
            raise MissingTarget(f"hooks for untraced functions {unhooked}")
        try:
            for name, func in originals.items():
                wrapper = self._wrap(name, func)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, func))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patched:
            module, attr, func = self._patched.pop()
            setattr(module, attr, func)
