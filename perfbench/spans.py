"""Spans around the public functions of every detloci layer, recorded from outside.

``Tracer.install`` replaces each public module-level function of the layer
modules by a timing wrapper wherever its name is bound (including names
imported into other detloci modules), and wraps the operator methods of
``CycloElem`` and ``LaurentPoly`` plus a few methods named by the per-layer
metrics.  A span is (id, parent, job, name, start, end); spans stay in memory
until ``write_spans``.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

LAYERS = ("arith", "poly", "complexes", "smith", "support", "bsloci", "torus", "io", "cli")

# (module, class, attribute, span name); several attributes may share a name
METHODS = [
    ("arith", "CycloElem", "__mul__", "arith.CycloElem.mul"),
    ("arith", "CycloElem", "__add__", "arith.CycloElem.add"),
    ("arith", "CycloElem", "__sub__", "arith.CycloElem.add"),
    ("arith", "CycloElem", "__neg__", "arith.CycloElem.add"),
    ("arith", "CycloElem", "inverse", "arith.CycloElem.inverse"),
    ("arith", "CycloElem", "scale", "arith.CycloElem.scale"),
    ("poly", "LaurentPoly", "__mul__", "poly.LaurentPoly.mul"),
    ("poly", "LaurentPoly", "__add__", "poly.LaurentPoly.add"),
    ("poly", "LaurentPoly", "__sub__", "poly.LaurentPoly.add"),
    ("poly", "LaurentPoly", "__neg__", "poly.LaurentPoly.add"),
    ("poly", "LaurentPoly", "scale", "poly.LaurentPoly.scale"),
    ("poly", "IdealGens", "make", "poly.IdealGens.make"),
    ("complexes", "MinorEngine", "det", "complexes.MinorEngine.det"),
    ("complexes", "FreeComplex", "make", "complexes.FreeComplex.make"),
    ("bsloci", "HyperplaneLocus", "make", "bsloci.HyperplaneLocus.make"),
    (
        "bsloci",
        "HyperplaneLocus",
        "contains_rational_point",
        "bsloci.HyperplaneLocus.contains_rational_point",
    ),
]

# (metric name, unit): every per-layer metric, figures per traced pass
PER_LAYER = [
    ("arith.self_ms", "ms"),
    ("arith.CycloElem.mul.calls", "1"),
    ("arith.CycloElem.mul.us_per_call", "us"),
    ("arith.CycloElem.add.calls", "1"),
    ("arith.CycloElem.add.us_per_call", "us"),
    ("arith.CycloElem.inverse.calls", "1"),
    ("arith.CycloElem.inverse.self_ms", "ms"),
    ("poly.self_ms", "ms"),
    ("poly.LaurentPoly.mul.calls", "1"),
    ("poly.LaurentPoly.mul.self_ms", "ms"),
    ("poly.exact_divide.calls", "1"),
    ("poly.exact_divide.self_ms", "ms"),
    ("poly.valuation_along.calls", "1"),
    ("poly.valuation_along.self_ms", "ms"),
    ("poly.IdealGens.make.calls", "1"),
    ("poly.IdealGens.make.self_ms", "ms"),
    ("poly.u_divmod.calls", "1"),
    ("poly.u_divmod.self_ms", "ms"),
    ("poly.parse_poly.calls", "1"),
    ("poly.parse_poly.self_ms", "ms"),
    ("complexes.self_ms", "ms"),
    ("complexes.MinorEngine.det.calls", "1"),
    ("complexes.cdf_ideal.total_ms", "ms"),
    ("complexes.jump_ideal.total_ms", "ms"),
    ("complexes.FreeComplex.make.calls", "1"),
    ("complexes.FreeComplex.make.self_ms", "ms"),
    ("smith.self_ms", "ms"),
    ("smith.smith_normal_form.calls", "1"),
    ("smith.smith_normal_form.self_ms", "ms"),
    ("smith.cohomology_presentation.total_ms", "ms"),
    ("smith.determinantal_factors.total_ms", "ms"),
    ("support.self_ms", "ms"),
    ("support.candidate_divisors.total_ms", "ms"),
    ("support.candidate_divisors.trials", "1"),
    ("support.support_report.total_ms", "ms"),
    ("support.specialization_multiplicity.total_ms", "ms"),
    ("bsloci.self_ms", "ms"),
    ("bsloci.combine_bm.total_ms", "ms"),
    ("bsloci.containment_check.total_ms", "ms"),
    ("bsloci.propagate_polar.total_ms", "ms"),
    ("bsloci.HyperplaneLocus.contains_rational_point.calls", "1"),
    ("torus.self_ms", "ms"),
    ("torus.exp_hyperplane.calls", "1"),
    ("io.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.pass_ms", "ms"),
]

# trials: exact_divide spans with a candidate_divisors span among their ancestors
TRIAL_PARENT = "support.candidate_divisors"
TRIAL_CHILD = "poly.exact_divide"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.stack: list[list] = []  # [span id, time covered by children]
        self.job = -1
        self.next_id = 0
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.trials = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.active):
                table.append(0)
            for table in (self.total, self.self_time):
                table.append(0.0)
        return self.ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        trial_parent = self._name_id(TRIAL_PARENT)
        is_trial = name == TRIAL_CHILD

        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer.active[nid] += 1
            if is_trial and tracer.active[trial_parent]:
                tracer.trials += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[nid] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[nid] += 1
                tracer.total[nid] += duration
                tracer.self_time[nid] += duration - frame[1]
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_job.append(tracer.job)
                tracer.span_name.append(nid)
                tracer.span_start.append(start)
                tracer.span_end.append(end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"detloci.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    replaced[id(value)] = self.wrap(value, f"{layer}.{attr}")
        package_modules = [
            m for name, m in list(sys.modules.items()) if name == "detloci" or name.startswith("detloci.")
        ]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, attr, replaced[id(value)])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self.wrap(raw, name))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reports ----------------------------------------------------------

    def _stat(self, name: str, table: list) -> float:
        nid = self.ids.get(name)
        return table[nid] if nid is not None else 0

    def metrics(self, pass_seconds: float) -> dict:
        """Every per-layer metric of one traced pass."""
        out = {}
        for metric, unit in PER_LAYER:
            head, _, kind = metric.rpartition(".")
            if metric == "trace.pass_ms":
                value = pass_seconds * 1e3
            elif kind == "self_ms" and head in LAYERS:
                value = 1e3 * sum(
                    t for name, t in zip(self.names, self.self_time) if name.startswith(head + ".")
                )
            elif kind == "calls":
                value = self._stat(head, self.calls)
            elif kind == "trials":
                value = self.trials
            elif kind == "self_ms":
                value = 1e3 * self._stat(head, self.self_time)
            elif kind == "total_ms":
                value = 1e3 * self._stat(head, self.total)
            elif kind == "us_per_call":
                calls = self._stat(head, self.calls)
                value = 1e6 * self._stat(head, self.total) / calls if calls else 0.0
            else:
                raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tjob\tname\tstart_us\tend_us\n")
            origin = min(self.span_start, default=0.0)
            for k in range(len(self.span_id)):
                handle.write(
                    f"{self.span_id[k]}\t{self.span_parent[k]}\t{self.span_job[k]}\t"
                    f"{self.names[self.span_name[k]]}\t"
                    f"{(self.span_start[k] - origin) * 1e6:.1f}\t{(self.span_end[k] - origin) * 1e6:.1f}\n"
                )

    def layer_table(self) -> str:
        lines = ["name\tcalls\ttotal_ms\tself_ms"]
        for nid in sorted(range(len(self.names)), key=lambda n: -self.self_time[n]):
            if self.calls[nid]:
                lines.append(
                    f"{self.names[nid]}\t{self.calls[nid]}\t"
                    f"{self.total[nid] * 1e3:.3f}\t{self.self_time[nid] * 1e3:.3f}"
                )
        return "\n".join(lines) + "\n"
