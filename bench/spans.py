"""Spans around lindtherm's public functions, installed from outside the package.

``Tracer.install`` replaces each function listed in ``TARGETS`` by a wrapper
that records a span (name, start, end, parent).  ``cli``, ``engine``,
``thermo`` and the models import these functions by name, so the wrapper is
set on every ``lindtherm`` module that holds the original object; calls
between functions of one module go through the module's globals and are
caught the same way.  ``DensityMatrix`` is wrapped on ``__init__``, so the
class itself, and every ``isinstance`` check against it, is unchanged.
Functions a module imports from scipy (``expm``, ``expm_multiply``) are
wrapped in that one module only, so each count belongs to one layer.

Spans stay in memory until ``uninstall``; ``layer_metrics`` reduces them to
the per-layer numbers and ``write_spans`` dumps them as CSV.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name); several attributes may share a span name
TARGETS = (
    ("lindtherm.operators", "DensityMatrix", "operators.DensityMatrix"),
    ("lindtherm.operators", "left_mul", "operators.superop_factor"),
    ("lindtherm.operators", "right_mul", "operators.superop_factor"),
    ("lindtherm.operators", "sandwich_mul", "operators.superop_factor"),
    ("lindtherm.gkls", "schrodinger_super", "gkls.schrodinger_super"),
    ("lindtherm.gkls", "heisenberg_super", "gkls.heisenberg_super"),
    ("lindtherm.gkls", "davies_terms", "gkls.davies_terms"),
    ("lindtherm.gkls", "stationary_state", "gkls.stationary_state"),
    ("lindtherm.gkls", "detailed_balance_report", "gkls.detailed_balance_report"),
    ("lindtherm.gkls", "evolve", "gkls.evolve"),
    ("lindtherm.gkls", "evolve_driven", "gkls.evolve_driven"),
    ("lindtherm.gkls", "expm", "gkls.expm"),
    ("lindtherm.gkls", "apply_schrodinger", "gkls.apply_schrodinger"),
    ("lindtherm.gkls", "apply_heisenberg", "gkls.apply_heisenberg"),
    ("lindtherm.thermo", "law_residuals", "thermo.law_residuals"),
    ("lindtherm.thermo", "heat_currents", "thermo.heat_currents"),
    ("lindtherm.thermo", "entropy_production", "thermo.entropy_production"),
    ("lindtherm.thermo", "ergotropy", "thermo.ergotropy"),
    ("lindtherm.engine", "stationary_derivative", "engine.stationary_derivative"),
    ("lindtherm.engine", "power_report", "engine.power_report"),
    ("lindtherm.engine", "equilibrium_power_bound", "engine.equilibrium_power_bound"),
    ("lindtherm.models.pv", "build_pv_family", "models.pv.build_pv_family"),
    ("lindtherm.models.pv", "pv_grand_canonical", "models.pv.pv_grand_canonical"),
    ("lindtherm.models.pv", "pv_power_current", "models.pv.pv_power_current"),
    ("lindtherm.models.chem", "evolve_oscillator", "models.chem.evolve_oscillator"),
    ("lindtherm.models.chem", "expm_multiply", "models.chem.expm_multiply"),
    ("lindtherm.models.chem", "coherent_state", "models.chem.coherent_state"),
    ("lindtherm.models.chem", "birth_death_evolve", "models.chem.birth_death_evolve"),
    ("lindtherm.models.chem", "gillespie_ensemble", "models.chem.gillespie_ensemble"),
    ("lindtherm.cli", "run_scenario", "cli.run_scenario"),
)

# per-layer metrics taken straight from the spans: (span name, statistic);
# "calls" counts spans, "s" sums outermost spans, "self_s" sums self time
SPAN_METRICS = (
    ("operators.DensityMatrix", "calls"), ("operators.DensityMatrix", "s"),
    ("operators.superop_factor", "calls"), ("operators.superop_factor", "s"),
    ("gkls.schrodinger_super", "calls"), ("gkls.schrodinger_super", "s"),
    ("gkls.heisenberg_super", "calls"), ("gkls.heisenberg_super", "s"),
    ("gkls.davies_terms", "calls"), ("gkls.davies_terms", "s"),
    ("gkls.stationary_state", "calls"), ("gkls.stationary_state", "s"),
    ("gkls.detailed_balance_report", "s"),
    ("gkls.evolve", "self_s"), ("gkls.evolve_driven", "self_s"),
    ("gkls.apply_schrodinger", "calls"), ("gkls.apply_schrodinger", "s"),
    ("gkls.apply_heisenberg", "calls"), ("gkls.apply_heisenberg", "s"),
    ("thermo.law_residuals", "self_s"),
    ("thermo.heat_currents", "calls"), ("thermo.heat_currents", "s"),
    ("thermo.entropy_production", "calls"), ("thermo.entropy_production", "s"),
    ("thermo.ergotropy", "calls"), ("thermo.ergotropy", "s"),
    ("engine.stationary_derivative", "self_s"),
    ("engine.power_report", "self_s"),
    ("engine.equilibrium_power_bound", "self_s"),
    ("models.pv.build_pv_family", "calls"), ("models.pv.build_pv_family", "s"),
    ("models.pv.pv_grand_canonical", "s"),
    ("models.pv.pv_power_current", "self_s"),
    ("models.chem.evolve_oscillator", "self_s"),
    ("models.chem.expm_multiply", "calls"), ("models.chem.expm_multiply", "s"),
    ("models.chem.coherent_state", "s"),
    ("models.chem.birth_death_evolve", "s"),
    ("models.chem.gillespie_ensemble", "s"),
    ("cli.run_scenario", "self_s"),
)

# counters that must repeat exactly between two passes over the same inputs
EXACT = (
    "gkls.propagators_built",
    "gkls.superop_bytes",
    "operators.DensityMatrix.max_dim",
) + tuple(f"{span}.calls" for span, stat in SPAN_METRICS if stat == "calls")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.steps = 0
        self.superop_bytes = 0
        self.max_dim = 0
        self._undo = []

    # hooks that derive counts from a call's arguments or result
    def _count_superop(self, args, kwargs, out):
        self.superop_bytes += 16 * out.shape[0] ** 2

    def _count_steps(self, args, kwargs, out):
        times = kwargs["times"] if "times" in kwargs else args[2]
        self.steps += len(times) - 1

    def _count_dim(self, args, kwargs, out):
        self.max_dim = max(self.max_dim, args[0].dim)

    def _wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        hooks = {
            "gkls.schrodinger_super": self._count_superop,
            "gkls.heisenberg_super": self._count_superop,
            "gkls.evolve": self._count_steps,
            "gkls.evolve_driven": self._count_steps,
            "operators.DensityMatrix": self._count_dim,
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr)
            if isinstance(orig, type):
                init = orig.__init__
                orig.__init__ = self._wrap(init, name, hooks.get(name))
                self._undo.append((orig, "__init__", init))
                continue
            wrapper = self._wrap(orig, name, hooks.get(name))
            if getattr(orig, "__module__", "").startswith("lindtherm"):
                holders = [m for n, m in list(sys.modules.items())
                           if n == "lindtherm" or n.startswith("lindtherm.")]
            else:
                holders = [module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self) -> dict:
        """Per-layer values {metric name: (value, unit)} of the recorded spans."""
        spans = self.spans
        calls = defaultdict(int)
        outer = defaultdict(float)
        self_s = defaultdict(float)
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                outer[name] += end - start
        out = {}
        for span, stat in SPAN_METRICS:
            if stat == "calls":
                out[f"{span}.calls"] = (calls[span], "count")
            elif stat == "s":
                out[f"{span}.s"] = (outer[span], "s")
            else:
                out[f"{span}.self_s"] = (self_s[span], "s")
        built = calls["gkls.expm"]
        out["gkls.propagators_built"] = (built, "count")
        out["gkls.propagator_hit_ratio"] = (1.0 - built / self.steps if self.steps else 0.0, "1")
        out["gkls.superop_bytes"] = (self.superop_bytes, "B")
        out["operators.DensityMatrix.max_dim"] = (self.max_dim, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
