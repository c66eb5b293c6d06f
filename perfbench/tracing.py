"""Per-layer tracing, loaded only by the traced worker process.

Spans come from two places: `Tracer.span`, which the workload operations
open around their own calls into the package, and wrappers that replace
public functions of the package for the life of the traced process.
Every span's self time is its duration minus the time of the spans
opened inside it.  Counters count calls without timing them.

Spans are aggregated in memory by (parent, name) and written out once,
when the round ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from checks import partition_counts


class Tracer:
    def __init__(self):
        self.stack = []    # [name, time spent in child spans] per open span
        self.edges = {}    # (parent, name) -> [calls, total_s, self_s]
        self.counts = {}   # counter name -> calls

    def _close(self, name, elapsed, child_s):
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += elapsed
        edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += elapsed
        edge[2] += elapsed - child_s

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start, frame[1])

    def wrap(self, fn, name):
        """`fn` as a span; `name` is a string or a function of the arguments.

        The body repeats `span` inline: fock-suites opens about 10^5 of
        these spans, and a generator-based context manager per call
        would double the tracing overhead."""
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [namer(*args, **kwargs), 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame[0], time.perf_counter() - start, frame[1])

        return traced

    def counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_s(self, name):
        return sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def calls(self, name):
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def dump(self):
        """Aggregated spans and counters, for the trace file."""
        spans = [
            {"parent": parent, "name": name, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (parent, name), e in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]
        return {"spans": spans, "counters": dict(self.counts)}


def _patch(modules, attr, make):
    """Replace `attr` in each module that binds the same function object."""
    original = getattr(modules[0], attr)
    wrapped = make(original)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _bareiss_name(matrix):
    level = partition_counts(12).index(len(matrix), 1) if matrix else 0
    return f"linalg.bareiss_det.sym.level{level}"


def install(workload, tracer):
    """Wrap the package functions whose spans `workload` reports."""
    from virasoro import density, fock, fock_checks, jantzen, oscillator, scalars, singular, verma

    def gram_name(level, params):
        return "verma.gram_matrix." + ("q" if params.is_rational() else "sym")

    if workload == "symbolic-det":
        _patch([verma, jantzen], "gram_matrix", lambda f: tracer.wrap(f, gram_name))
        _patch([verma], "bareiss_det", lambda f: tracer.wrap(f, _bareiss_name))
        _patch([jantzen], "jantzen_filtration",
               lambda f: tracer.wrap(f, "jantzen.jantzen_filtration"))
        for cls in (scalars.BiPoly, scalars.UniPoly):
            cls.__mul__ = cls.__rmul__ = tracer.counter(cls.__mul__, f"scalars.{cls.__name__}.mul")
        scalars.BiPoly.exact_div = tracer.counter(scalars.BiPoly.exact_div, "scalars.BiPoly.exact_div")
    elif workload == "rank-oracle":
        _patch([verma], "gram_matrix", lambda f: tracer.wrap(f, gram_name))
        _patch([verma], "rank", lambda f: tracer.wrap(f, "linalg.rank.q"))
        _patch([verma], "apply_L", lambda f: tracer.counter(f, "verma.apply_L"))
    elif workload == "fock-suites":
        for attr in ("vertex_mode", "raising_coeff_apply", "lowering_coeff_apply",
                     "boson_apply", "psi_mode", "psi_mode_b"):
            _patch([fock, fock_checks], attr, lambda f, a=attr: tracer.wrap(f, f"fock.{a}"))
    elif workload == "cli-mix":
        for module, attr in ((singular, "bdiz_singular"), (singular, "curve_singular"),
                             (density, "ad_direct"), (oscillator, "goldstone_vector"),
                             (oscillator, "binom_det")):
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            _patch([module], attr, lambda f, n=name: tracer.wrap(f, n))


def layer_metrics(workload, tracer, info):
    """The per-layer metrics one workload reports, from its traced round."""
    t = tracer
    s = {"unit": "s"}
    count = {"unit": "count"}
    out = {}
    if workload == "symbolic-det":
        levels = [n for (_, n) in t.edges if n.startswith("linalg.bareiss_det.sym.")]
        out["verma.gram_matrix.sym_s"] = {"value": t.self_s("verma.gram_matrix.sym"), **s}
        out["linalg.bareiss_det.sym_s"] = {"value": sum(t.self_s(n) for n in set(levels)), **s}
        out["linalg.bareiss_det.level5_s"] = {"value": t.self_s("linalg.bareiss_det.sym.level5"), **s}
        out["scalars.exact_div.kac_s"] = {"value": t.self_s("scalars.exact_div.kac"), **s}
        out["jantzen.det_order_identity_s"] = {"value": t.self_s("jantzen.det_order_identity"), **s}
        out["jantzen.jantzen_filtration_s"] = {"value": t.self_s("jantzen.jantzen_filtration"), **s}
        out["scalars.BiPoly.mul_count"] = {"value": t.counts["scalars.BiPoly.mul"], **count}
        out["scalars.BiPoly.exact_div_count"] = {"value": t.counts["scalars.BiPoly.exact_div"], **count}
        out["scalars.UniPoly.mul_count"] = {"value": t.counts["scalars.UniPoly.mul"], **count}
    elif workload == "rank-oracle":
        out["verma.gram_matrix.q_s"] = {"value": t.self_s("verma.gram_matrix.q"), **s}
        out["verma.apply_L_count"] = {"value": t.counts["verma.apply_L"], **count}
        out["linalg.rank.q_s"] = {"value": t.self_s("linalg.rank.q"), **s}
        out["jantzen.character_formula_s"] = {"value": t.self_s("jantzen.character_formula"), **s}
    elif workload == "fock-suites":
        for name, checked in info["checked"].items():
            out[f"fock_checks.{name}_s"] = {"value": t.self_s(f"fock_checks.{name}"), **s}
            out[f"fock_checks.{name}.checked"] = {"value": checked, **count}
        for attr in ("vertex_mode", "raising_coeff_apply", "lowering_coeff_apply",
                     "boson_apply", "psi_mode", "psi_mode_b"):
            out[f"fock.{attr}_s"] = {"value": t.self_s(f"fock.{attr}"), **s}
        out["fock.vertex_mode_count"] = {"value": t.calls("fock.vertex_mode"), **count}
        out["fock.raising_coeff_apply_count"] = {"value": t.calls("fock.raising_coeff_apply"), **count}
    elif workload == "cli-mix":
        for name in ("singular.bdiz_singular", "singular.curve_singular", "density.ad_direct",
                     "oscillator.goldstone_vector", "oscillator.binom_det"):
            out[f"{name}_s"] = {"value": t.self_s(name), **s}
        by_sub = {}
        for sub, secs in info["timings"]:
            by_sub.setdefault(sub, []).append(secs)
        for sub, secs in sorted(by_sub.items()):
            out[f"cli.{sub}_ms"] = {"value": 1000 * statistics.median(secs), "unit": "ms"}
        out["cli.import_ms"] = {"value": 1000 * statistics.median(info["import_s"]), "unit": "ms"}
    return out
