"""Traced runs: per-layer self time and counts, measured from outside.

:class:`LayerTracer` puts timing wrappers in place of the program's
public entry points while a traced pass runs and restores the originals
afterwards.  No program source changes, and an untraced pass runs none of
this code.  One layer per entry point:

* ``clike.parse`` -- ``repro.clike.parse``, in every module that bound it;
* ``translate.cuda2ocl`` / ``translate.ocl2cuda`` --
  ``translate_cuda_program``, ``translate_opencl_program``, and
  ``translate_kernel_unit``, through which the OpenCL->CUDA wrapper
  library translates at ``clBuildProgram``;
* ``host`` -- ``Interp.call``: the host program's ``main``;
* ``api.<family>`` -- every callable of a table passed to
  ``HostEnv.register_many``; the family names the run mode's API, native
  or wrapper library (:data:`API_FAMILY`);
* ``engine.load_module`` (kernel codegen included) and ``engine.launch``
  -- ``load_module`` and ``launch_kernel`` of ``repro.device.engine``.

A layer's *self time* is its wall time minus the wall time of the
wrapped calls made inside it, so the self times of all layers plus the
op's own remainder, the *unattributed* time, add up to the op's wall
time.  A call into a layer already on the stack (host code calling
through a function pointer, the OpenCL->CUDA program translation calling
the kernel translator) stays part of the outer call.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: host-API calls that move data between host and device memory
TRANSFER_CALL = re.compile(r"Memcpy|Enqueue(Read|Write|Copy)(Buffer|Image)")

#: ``api.<family>`` of each run mode: the native API, or the wrapper
#: library that realizes it over the other model (paper §6.3)
API_FAMILY = {"ocl-native": "ocl-native", "ocl2cuda": "ocl2cuda-wrapper",
              "cuda-native": "cuda-native", "cuda2ocl": "cuda2ocl-wrapper"}

#: (layer, defining module, name) of every wrapped free function
_ENTRY_POINTS = (
    ("clike.parse", "repro.clike.parser", "parse"),
    ("translate.cuda2ocl", "repro.translate.api", "translate_cuda_program"),
    ("translate.ocl2cuda", "repro.translate.api",
     "translate_opencl_program"),
    ("translate.ocl2cuda", "repro.translate.ocl2cuda.kernel",
     "translate_kernel_unit"),
    ("engine.load_module", "repro.device.engine", "load_module"),
    ("engine.launch", "repro.device.engine", "launch_kernel"),
)

_After = Callable[[Any, Tuple, float], None]


def launch_tier(kernel: Any) -> str:
    """The tier a launch of ``kernel`` ran on, read from its module's
    public entry tables the way the engine chooses (vector entry, else
    compiled entry, else the interpreter)."""
    mod, name = kernel.module, kernel.fn.name
    if mod.exec_tier == "vector" and name in mod.vector_entries:
        return "vector"
    if mod.exec_tier != "interp" and name in mod.compiled_entries:
        return "compiled"
    return "interp"


class LayerTracer:
    """Calls, wall time, self time and counts per layer.

    Entering the tracer installs the wrappers, leaving it removes them;
    :meth:`op` times one op of the workload as layer ``op.<name>``.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: counts and sums read from what the entry points return
        self.counts: Dict[str, float] = defaultdict(float)
        #: family of the API tables registered from now on
        self.api_family = "api"
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- timing -------------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, layer: str, fn: Callable[..., Any], args: Tuple,
             kwargs: Dict[str, Any], after: Optional[_After] = None) -> Any:
        """Run ``fn`` as one call of ``layer``; ``after(result, args,
        self_s)`` reads counts off a call that returned."""
        stack = self._stack()
        if any(frame[0] == layer for frame in stack):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]            # layer, wall time of wrapped calls
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += wall
            with self._lock:
                self.calls[layer] += 1
                self.total_s[layer] += wall
                self.self_s[layer] += wall - frame[1]
        if after is not None:
            after(result, args, wall - frame[1])
        return result

    def op(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """One op of the workload; its self time is the op's unattributed
        time."""
        return self.call(f"op.{name}", fn, args, {})

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def add_pass_stats(self, stats: Any) -> None:
        """Fold one translation's ``PipelineStats`` into the pass counts."""
        for p in stats.passes:
            self.add(f"pass.{p.name}.s", p.wall_s)
            self.add(f"pass.{p.name}.rewrites", p.rewrites)

    def op_wall_s(self) -> float:
        return sum(v for k, v in self.total_s.items() if k.startswith("op."))

    def op_self_s(self) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith("op."))

    # -- what each layer reports beyond time ----------------------------------

    def _after_parse(self, result: Any, args: Tuple, self_s: float) -> None:
        self.add("clike.parse.bytes", len(args[0]))

    def _after_translate(self, result: Any, args: Tuple,
                         self_s: float) -> None:
        if result.pass_stats is not None:
            self.add_pass_stats(result.pass_stats)

    def _after_launch(self, result: Any, args: Tuple, self_s: float) -> None:
        self.add("engine.work_items", result.counters.work_items)
        self.add(f"engine.tier.{launch_tier(args[1])}", 1)

    def _after_transfer(self, result: Any, args: Tuple,
                        self_s: float) -> None:
        self.add("api.xfer.s", self_s)

    # -- installation -------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable[..., Any],
              after: Optional[_After] = None) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer, fn, args, kwargs, after)
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        after = {"clike.parse": self._after_parse,
                 "translate.cuda2ocl": self._after_translate,
                 "translate.ocl2cuda": self._after_translate,
                 "engine.launch": self._after_launch}
        for layer, module, name in _ENTRY_POINTS:
            original = getattr(importlib.import_module(module), name)
            wrapper = self._wrap(layer, original, after.get(layer))
            # every module that bound the function by name gets the wrapper
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "repro" or mod_name.startswith("repro."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)

        from repro.clike.hostlib import HostEnv
        from repro.clike.interp import Interp
        tracer = self
        interp_call = Interp.call
        register_many = HostEnv.register_many

        def traced_call(interp: Any, name: str, args: Any) -> Any:
            return tracer.call("host", interp_call, (interp, name, args), {})

        def traced_register_many(env: Any, table: Dict[str, Any]) -> None:
            layer = f"api.{tracer.api_family}"
            register_many(env, {
                name: tracer._wrap(layer, impl,
                                   tracer._after_transfer
                                   if TRANSFER_CALL.search(name) else None)
                for name, impl in table.items()})

        self._set(Interp, "call", traced_call)
        self._set(HostEnv, "register_many", traced_register_many)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
