"""Per-layer spans and work counts for a traced pass, recorded from outside
the package.

Each target is replaced by a wrapper in every metrilab module namespace that
holds it, so callers that bound a function at import time
(`from ..kernels import ca_step as _kernel_ca_step` in exp4) are traced as
well as callers that look it up through its module (`kernels.rotor_chunk` in
exp1). Methods are replaced on their class. `restore()` puts every original
back.

A span's self time is its duration minus the durations of the spans opened
inside it. Work counts are computed from argument shapes, not measured.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

from workloads import SUBCOMMANDS


def _nbytes(*objs):
    """Bytes of the distinct arrays among objs, searching tuples and lists."""
    arrays = {}
    stack = list(objs)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif hasattr(obj, "shape") and hasattr(obj, "nbytes"):
            arrays[id(obj)] = obj.nbytes
    return sum(arrays.values())


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _patches(a):
    (h, w), p, stride = a["E"].shape, a["w"], a["stride"]
    return ((h - p) // stride + 1) * ((w - p) // stride + 1)


@dataclass(frozen=True)
class Target:
    """A function to wrap. `work(arguments, result)` returns one count per
    name in `counters`; `arguments` maps parameter names to values."""

    layer: str
    module: str
    qualname: str
    counters: tuple = ()
    work: object = None
    timed: bool = True       # False: count calls only, for hot tiny functions

    @property
    def name(self):
        return f"{self.layer}.{self.qualname}"


TARGETS = (
    Target("config", "metrilab.config", "parse_config"),
    Target("kernels", "metrilab.kernels", "doublewell_chunk", ("trial_steps", "bytes"),
           lambda a, out: (a["noise"].size, _nbytes(*a.values(), out))),
    Target("kernels", "metrilab.kernels", "rotor_chunk", ("steps", "bytes"),
           lambda a, out: (len(a["u"]), _nbytes(*a.values(), out))),
    Target("kernels", "metrilab.kernels", "esn_collect", ("steps", "bytes"),
           lambda a, out: (len(a["y"]), _nbytes(*a.values(), out))),
    Target("kernels", "metrilab.kernels", "ca_step", ("cells", "bytes"),
           lambda a, out: (a["E"].size, _nbytes(*a.values(), out))),
    Target("kernels", "metrilab.kernels", "patch_entropy", ("patches", "bytes"),
           lambda a, out: (_patches(a), _nbytes(*a.values(), out))),
    Target("numerics", "metrilab.numerics", "ridge_fit"),
    Target("numerics", "metrilab.numerics", "spectral_radius"),
    Target("experiments", "metrilab.experiments.exp1", "lagged_r2"),
    Target("experiments", "metrilab.experiments.exp4", "patch_outward_flux"),
    Target("experiments", "metrilab.experiments.base", "write_result", ("bytes",),
           lambda a, out: (_file_bytes(*out),)),
    Target("experiments", "metrilab.experiments.base", "write_json", ("bytes",),
           lambda a, out: (_file_bytes(a["path"]),)),
    Target("cce", "metrilab.cce", "simulate_bitflip"),
    Target("cce", "metrilab.cce", "simulate_erasure"),
    Target("cce", "metrilab.cce", "encoding_path_length"),
    Target("circuits", "metrilab.circuits", "settle_and_read"),
    Target("circuits", "metrilab.circuits", "run_flipflop"),
    Target("circuits", "metrilab.circuits", "CircuitGraph.field", timed=False),
    Target("metrics", "metrilab.metrics", "biased_walk_currents"),
    Target("metrics", "metrilab.metrics", "tur_check"),
    Target("metrics", "metrilab.metrics", "trace_bound_check"),
    Target("metrics", "metrilab.metrics", "classical_bound_check"),
    Target("metrics", "metrilab.metrics", "safety_monitor"),
    Target("metriplectic", "metrilab.metriplectic", "step", timed=False),
    Target("metriplectic", "metrilab.metriplectic", "simulate"),
)


class _Stat:
    __slots__ = ("calls", "errors", "self_s", "incl_s", "work")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.work = {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._open = []      # per open span: summed duration of its child spans
        self._patches = []   # (owner, attribute, original)

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn inside a span called `name` and return its result."""
        st = self.stat(name)
        self._open.append(0.0)
        t0 = self.clock()
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            dur = self.clock() - t0
            child = self._open.pop()
            st.calls += 1
            st.errors += failed
            st.incl_s += dur
            st.self_s += dur - child
            if self._open:
                self._open[-1] += dur

    def _timed(self, target, fn):
        name, work = target.name, target.work
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if work is not None:
                bound = sig.bind(*args, **kwargs).arguments
                acc = self.stats[name].work
                for key, n in zip(target.counters, work(bound, out)):
                    acc[key] = acc.get(key, 0) + int(n)
            return out
        return wrapper

    def _counted(self, target, fn):
        st = self.stat(target.name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target wherever a metrilab module or class holds it."""
        for t in targets:
            owner = importlib.import_module(t.module)
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = (self._timed if t.timed else self._counted)(t, original)
            sites = [(owner, attr)] + [
                (mod, key) for mod in _metrilab_modules() for key, val in vars(mod).items()
                if val is original and mod is not owner]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def restore(self):
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def metrics(self, targets=TARGETS):
        """Every per-layer metric the tracer declares, zero where nothing ran."""
        out = {}
        for name, kind in span_names(targets):
            st = self.stats.get(name) or _Stat()
            out[f"{name}.calls"] = st.calls
            out[f"{name}.errors"] = st.errors
            if kind == "cli":
                out[f"{name}.s"] = st.incl_s
            elif kind == "timed":
                out[f"{name}.s"] = st.self_s
        for t in targets:
            for key in t.counters:
                st = self.stats.get(t.name)
                out[f"{t.name}.{key}"] = st.work.get(key, 0) if st else 0
        return out


def _metrilab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "metrilab" or n.startswith("metrilab."))]


def span_names(targets=TARGETS):
    """(span name, kind) for the CLI spans and every target."""
    names = [(f"cli.{sub}", "cli") for sub in sorted(SUBCOMMANDS)]
    names += [(t.name, "timed" if t.timed else "counted") for t in targets]
    return names


def metric_units(targets=TARGETS):
    """Metric name -> unit for everything `Tracer.metrics` emits."""
    units = {}
    for name in Tracer().metrics(targets):
        units[name] = "s" if name.endswith(".s") else "B" if name.endswith(".bytes") else "count"
    return units
