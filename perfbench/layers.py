"""Per-layer tracing from outside the program.

`Tracer.install()` wraps public functions and methods of the stabring
modules; `Tracer.restore()` puts every original back.  A wrapped name is
replaced in every stabring module that bound it (for example
`stabring.cli.gef` as well as `stabring.gef.gef`), so calls through a
`from .x import y` binding are traced too.

Spans (name, start, end, parent id) are kept in memory; the per-layer
numbers are computed once, at the end of a traced pass.  A span's self time
is its duration minus the time its child spans cover.  Counts come from the
wrapped functions' return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer, attribute path in stabring.<layer>, only the outermost call of the
# layer gets a span, metrics reported).  Spans without reported metrics still
# count toward their layer's self time.
TARGETS = [
    ("cli", "load_plant", False, "s"),
    ("cli", "load_controller", False, "s"),
    ("cli", "synth_report", False, ""),
    ("cli", "plant_block", False, ""),
    ("cli", "gef_block", False, ""),
    ("cli", "render_report", False, "s"),
    ("ring", "presentation", False, "s calls"),
    ("ring", "unit_multiplier", False, "s"),
    ("ring", "fraction_in_ring", False, "calls"),
    ("gef", "scalar_denominator", False, "s"),
    ("gef", "gef", False, "s"),
    ("gef", "witness_matrix", False, "s"),
    ("groebner", "buchberger", False, "s calls"),
    ("groebner", "IdealHandle.groebner", False, ""),
    ("groebner", "IdealHandle.is_unit", False, "s calls"),
    ("groebner", "IdealHandle.colon", False, "s"),
    ("groebner", "IdealHandle.intersect", False, "s"),
    ("synth", "stabilizable", False, "s"),
    ("synth", "synthesize", False, ""),
    ("synth", "local_factorization", False, "s"),
    ("synth", "partition_powers", False, "s"),
    ("synth", "repair_nonsingular", False, "s"),
    ("synth", "verify_stabilizing", False, "s calls"),
    ("synth", "closed_loop", False, "s"),
    ("matrixring", "Mat.det", True, "s calls"),
    ("matrixring", "Mat.adjugate", True, "s"),
    ("sim", "simulate_loop", False, "s"),
    ("sim", "trace_to_csv", False, ""),
]

LAYERS = ("cli", "ring", "gef", "groebner", "synth", "matrixring", "sim")

ROOT = "job"  # the benchmark's own span around each job; not a layer


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


def _coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for _, c in p.items():
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _fraction_bits(mat) -> int:
    return _coeff_bits([p for e in mat.entries for p in (e.num, e.den)])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.layer_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.stack[-1].id if self.stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.maxima.clear()

    # -- counts from return values -------------------------------------------

    def _observe(self, name: str, result, before: dict):
        c, mx = self.counts, self.maxima
        if name == "groebner.buchberger":
            c["groebner.basis_len.sum"] += len(result.basis)
            mx["groebner.basis_len.max"] = max(mx["groebner.basis_len.max"], len(result.basis))
            mx["groebner.degree.max"] = max([mx["groebner.degree.max"]]
                                            + [g.total_degree() for g in result.basis])
            mx["groebner.coeff_bits.max"] = max(mx["groebner.coeff_bits.max"],
                                                _coeff_bits(result.basis))
        elif name == "groebner.groebner":
            if self.counts["calls.groebner.buchberger"] == before["buchberger"]:
                c["groebner.cache_hits"] += 1
        elif name == "gef.gef":
            c["gef.index_sets"] += len(result.entries)
            c["gef.singular_index_sets"] += sum(e.singular for e in result.entries)
            c["gef.generators"] += sum(len(e.generators) for e in result.entries)
        elif name == "synth.stabilizable":
            if result.stabilizable:
                # one is_unit call for the whole family, then one per combo tried
                combos = self.counts["calls.groebner.is_unit"] - before["is_unit"] - 1
                mx["synth.subset_combos"] = max(mx["synth.subset_combos"], combos)
        elif name == "synth.synthesize":
            c["synth.repair_applied"] += int(result.repair_applied)
            mx["synth.omega.max"] = max(mx["synth.omega.max"], result.omega)
            mx["synth.controller_coeff_bits.max"] = max(
                mx["synth.controller_coeff_bits.max"], _fraction_bits(result.C))
        elif name == "cli.load_controller":
            mx["synth.controller_coeff_bits.max"] = max(
                mx["synth.controller_coeff_bits.max"], _fraction_bits(result))
        elif name == "sim.simulate_loop":
            c["sim.steps"] += result.steps()

    # -- installing and restoring wrappers -----------------------------------

    def _wrap(self, name: str, layer: str, outermost: bool, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer.layer_depth[layer]:
                return fn(*args, **kwargs)
            before = {"buchberger": tracer.counts["calls.groebner.buchberger"],
                      "is_unit": tracer.counts["calls.groebner.is_unit"]}
            tracer.counts[f"calls.{name}"] += 1
            tracer.layer_depth[layer] += 1
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
                tracer.layer_depth[layer] -= 1
            tracer._observe(name, result, before)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "stabring" or n.startswith("stabring.")) and m is not None]
        for layer, path, outermost, _ in TARGETS:
            module = importlib.import_module(f"stabring.{layer}")
            name = span_name(layer, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, layer, outermost, cls.__dict__[meth]))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, layer, outermost, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since the last reset."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        by_id = {s.id: s for s in self.spans}
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s.name.split(".")[0]
            if layer in LAYERS:
                self_s[layer] += (s.end - s.start) - children[s.id]
            ancestor, nested = s.parent, False
            while ancestor is not None:
                parent = by_id[ancestor]
                if parent.name == s.name:
                    nested = True
                    break
                ancestor = parent.parent
            if not nested:
                inclusive[s.name] += s.end - s.start
                calls[s.name] += 1
        out: dict[str, float] = {}
        for layer, path, _, report in TARGETS:
            name = span_name(layer, path)
            if "s" in report.split():
                out[f"{name}.s"] = inclusive[name]
            if "calls" in report.split():
                out[f"{name}.calls"] = calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.coverage"] = sum(self_s.values()) / wall_s if wall_s > 0 else 0.0
        groebner_calls = calls["groebner.groebner"]
        out["groebner.cache_hit_ratio"] = (self.counts["groebner.cache_hits"] / groebner_calls
                                           if groebner_calls else 0.0)
        for key in ("groebner.basis_len.sum", "gef.index_sets", "gef.singular_index_sets",
                    "gef.generators", "synth.repair_applied", "sim.steps"):
            out[key] = self.counts[key]
        for key in ("groebner.basis_len.max", "groebner.degree.max", "groebner.coeff_bits.max",
                    "synth.subset_combos", "synth.omega.max",
                    "synth.controller_coeff_bits.max"):
            out[key] = self.maxima[key]
        return out
