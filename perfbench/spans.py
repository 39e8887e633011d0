"""Span tracing of riemdyn from outside the package.

``Tracer.install`` wraps every public function of each ``riemdyn`` module,
and every public method of the classes those modules define, in a recorder.
It then rebinds every name in every ``riemdyn`` module that refers to an
original, so functions imported by name (``from .dynamics_newton import
integrate_ode``) are traced as well. Nothing in ``src/`` changes.

Each call records a span: name, start, end, parent span and operation id.
Spans stay in compact in-memory arrays and are written out once, at the end
of the run. ``layer_metrics`` turns them into the per-layer metrics, where a
layer is a module name and a span's self time is its duration minus the time
its child spans cover.

Three boundaries get more than a span:

* ``integrate_ode``: its ``rhs`` and ``in_domain`` callbacks are wrapped too.
  An attempted step is an ``rhs`` call on the current state object, an
  accepted step an ``in_domain`` call that returns true; a retry after a
  rejected error estimate or a stage that left the chart counts as rejected.
* ``legendre_inverse``: adds ``ctx.last_iterations`` to the Newton count.
* ``x_partials`` / ``fiber_partials``: counts the calls whose field has no
  analytic hook and so falls back to finite differences.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "expression",
    "manifold",
    "extended_fields",
    "dynamics_newton",
    "dynamics_lagrange",
    "dynamics_hamilton",
    "normal_shift",
    "verification",
    "cli",
)

_DRIVERS = (
    "dynamics_newton.integrate",
    "dynamics_lagrange.integrate_lagrangian",
    "dynamics_hamilton.integrate_hamiltonian",
)
_CSV_WRITERS = ("dynamics_newton.write_trajectory_csv", "dynamics_hamilton.write_cotangent_csv")
_CLI_BUILDERS = ("cli.build_chart", "cli.build_lagrangian", "cli.build_force", "cli.build_integrator")


class Tracer:
    """In-memory span recorder for the traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, after=None):
        """A traced stand-in for fn; after(args, kwargs, result) runs inside the span."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- boundary hooks -------------------------------------------------

    def _integrate_ode(self, fn):
        counts = self.counts
        wrap = self.wrap

        def integrate_ode(rhs, y0, config, in_domain):
            if not self.active:
                return fn(rhs, y0, config, in_domain)
            layer = rhs.__module__.rsplit(".", 1)[-1]
            current = []

            def counted_rhs(t, y):
                if not current or y is current[0]:
                    counts["attempts"] += 1
                    current[:] = [y]
                counts["rhs_evals"] += 1
                return rhs(t, y)

            def counted_in_domain(y):
                inside = in_domain(y)
                if inside:
                    counts["accepted"] += 1
                    current[:] = [y]
                return inside

            return fn(
                wrap(counted_rhs, f"{layer}.rhs_callback"),
                y0,
                config,
                wrap(counted_in_domain, f"{layer}.in_domain_callback"),
            )

        return integrate_ode

    def _after_legendre_inverse(self, args, kwargs, result):
        ctx = args[0] if args else kwargs["ctx"]
        self.counts["newton_iterations"] += ctx.last_iterations

    def _after_partials(self, hook):
        def after(args, kwargs, result):
            fld = args[1] if len(args) > 1 else kwargs["field"]
            self.counts["partials"] += 1
            if getattr(fld, hook) is None:
                self.counts["fd_partials"] += 1

        return after

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap riemdyn's public functions; call once, after importing riemdyn."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"riemdyn.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._traced_function(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "riemdyn" or mod_name.startswith("riemdyn."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in originals and inspect.isfunction(obj):
                        setattr(module, attr, originals[id(obj)])

    def _traced_function(self, fn, name):
        if name == "dynamics_newton.integrate_ode":
            return self.wrap(self._integrate_ode(fn), name)
        if name == "dynamics_hamilton.legendre_inverse":
            return self.wrap(fn, name, self._after_legendre_inverse)
        if name == "extended_fields.x_partials":
            return self.wrap(fn, name, self._after_partials("x_partials_fn"))
        if name == "extended_fields.fiber_partials":
            return self.wrap(fn, name, self._after_partials("fiber_partials_fn"))
        return self.wrap(fn, name)

    # -- output ----------------------------------------------------------

    def arrays(self):
        # Copies, so the arrays stay free to grow afterwards.
        return {
            "name": np.array(np.frombuffer(self.name, dtype=np.int32)),
            "parent": np.array(np.frombuffer(self.parent, dtype=np.int32)),
            "op": np.array(np.frombuffer(self.op, dtype=np.int32)),
            "start": np.array(np.frombuffer(self.start, dtype=np.float64)),
            "end": np.array(np.frombuffer(self.end, dtype=np.float64)),
        }

    def save(self, path):
        """Write every span, with the name table, as an uncompressed .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics per traced operation, from the spans and counts."""
    a = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names])
    span_layer = layer_of_name[a["name"]]
    parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
    entry = span_layer != parent_layer

    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=dur, minlength=n_names)

    def count(name):
        return int(calls[names.index(name)]) if name in names else 0

    def seconds(name):
        return float(total[names.index(name)]) if name in names else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_us(name):
        return 1e6 * ratio(seconds(name), count(name))

    c = tracer.counts
    m = {}
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.calls"] = int(np.sum(entry & (span_layer == i))) / ops
        m[f"{layer}.self_s"] = float(np.sum(self_time[span_layer == i])) / ops
    m["expression.us_per_call"] = 1e6 * ratio(m["expression.self_s"], m["expression.calls"])

    rhs_evals = c["rhs_evals"]
    m["manifold.metric_at.calls"] = count("manifold.metric_at") / ops
    m["manifold.christoffel_at.calls"] = count("manifold.christoffel_at") / ops
    m["manifold.metric_partials_at.calls"] = count("manifold.metric_partials_at") / ops
    m["manifold.metric_at_per_rhs"] = ratio(count("manifold.metric_at"), rhs_evals)
    m["manifold.metric_at_us"] = mean_us("manifold.metric_at")

    m["extended_fields.spatial_gradient.calls"] = count("extended_fields.spatial_gradient") / ops
    m["extended_fields.partials.calls"] = c["partials"] / ops
    m["extended_fields.fd_share"] = ratio(c["fd_partials"], c["partials"])

    # integrate_ode self time: the stepper alone, its callbacks being child spans.
    ode_spans = a["name"] == names.index("dynamics_newton.integrate_ode")
    stepper_self = float(np.sum(self_time[ode_spans]))
    driver_ids = [names.index(d) for d in _DRIVERS if d in names]
    under_driver = ode_spans & np.isin(a["name"][np.maximum(a["parent"], 0)], driver_ids) & has_parent
    post = sum(seconds(d) for d in _DRIVERS) - float(np.sum(dur[under_driver]))
    m["dynamics_newton.rhs_evals"] = rhs_evals / ops
    m["dynamics_newton.steps_accepted"] = c["accepted"] / ops
    m["dynamics_newton.steps_rejected"] = (c["attempts"] - c["accepted"]) / ops
    m["dynamics_newton.accept_ratio"] = ratio(c["accepted"], c["attempts"])
    m["dynamics_newton.stepper_us_per_step"] = 1e6 * ratio(stepper_self, c["accepted"])
    m["dynamics_newton.newtonian_rhs_us"] = mean_us("dynamics_newton.newtonian_rhs")
    m["dynamics_newton.post_s"] = post / ops
    m["dynamics_newton.csv_s"] = sum(seconds(w) for w in _CSV_WRITERS) / ops

    m["dynamics_lagrange.force_us"] = mean_us("dynamics_lagrange.force_from_lagrangian")
    m["dynamics_lagrange.a_matrix.calls"] = count("dynamics_lagrange.a_matrix") / ops
    m["dynamics_lagrange.rhs_us"] = mean_us("dynamics_lagrange.rhs_callback")

    m["dynamics_hamilton.rhs_us"] = mean_us("dynamics_hamilton.hamilton_rhs")
    m["dynamics_hamilton.legendre_inverse.calls"] = count("dynamics_hamilton.legendre_inverse") / ops
    m["dynamics_hamilton.legendre_inverse_us"] = mean_us("dynamics_hamilton.legendre_inverse")
    m["dynamics_hamilton.newton_iterations"] = c["newton_iterations"] / ops

    m["cli.build_s"] = sum(seconds(b) for b in _CLI_BUILDERS) / ops
    m["trace.spans"] = len(dur) / ops
    return m


def invariant_failures(tracer: Tracer, m: dict[str, float], rk4: bool, nonzero, zero) -> list[str]:
    """Count invariants of one traced run; returns a line per broken one.

    On rk4, every step takes exactly four right-hand sides. Each layer in
    ``nonzero`` must be entered at least once per operation, each layer in
    ``zero`` never.
    """
    bad = []
    c = tracer.counts
    if rk4 and c["rhs_evals"] != 4 * c["accepted"]:
        bad.append(f"rhs_evals {c['rhs_evals']} != 4 x steps_accepted {c['accepted']}")
    if c["attempts"] < c["accepted"]:
        bad.append(f"{c['attempts']} attempted steps < {c['accepted']} accepted")
    for layer in nonzero:
        if m[f"{layer}.calls"] == 0:
            bad.append(f"{layer}.calls is 0, expected calls")
    for layer in zero:
        if m[f"{layer}.calls"] != 0:
            bad.append(f"{layer}.calls is {m[f'{layer}.calls']}, expected 0")
    return bad
