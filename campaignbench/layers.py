"""Per-layer self time and work counts, measured from outside the program.

:func:`install` replaces the public functions and methods at each layer
boundary with timing wrappers.  A function is replaced in every loaded
``repro`` module that holds it, so ``from x import f`` callers see the
wrapper too; a method is replaced on its class.  No program code is
edited.

A wrapper opens a span on entry and closes it on exit.  A layer's busy
time is *self* time: the span's duration minus the time of the spans it
encloses, so the layers' busy times add up to at most the traced wall
time.  The rest is reported as ``unattributed_s``.  Work counts are
taken from the arguments and results at the same boundaries; the time
spent computing them is booked to a ``tracer`` layer, never to the
layer being measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import defaultdict

# modules holding the wrapped boundaries; imported before patching so
# that every from-import of a wrapped function is visible to the scan
MODULES = (
    "repro.designs.core",
    "repro.designs.harness",
    "repro.ift.cellift",
    "repro.sim.simulator",
    "repro.mc.enumerative",
    "repro.mc.kinduction",
    "repro.mc.bmc",
    "repro.mc.portfolio",
    "repro.mc.incremental",
    "repro.solver.sat",
    "repro.solver.bitblast",
    "repro.solver.preprocess",
    "repro.cert",
    "repro.core.rtl2mupath",
    "repro.core.synthlc",
    "repro.engine.scheduler",
    "repro.engine.specs",
    "repro.fuzz.gen",
    "repro.fuzz.oracle",
    "repro.fuzz.campaign",
)

# (metric, unit) in report order; every traced run reports all of them
METRICS = (
    ("rtl.build_s", "s"),
    ("ift.instrument_s", "s"),
    ("ift.cells", "count"),
    ("designs.contexts_s", "s"),
    ("designs.contexts", "count"),
    ("sim.compile_calls", "count"),
    ("sim.compile_netlists", "count"),
    ("sim.compile_s", "s"),
    ("sim.contexts", "count"),
    ("sim.cycles", "count"),
    ("sim.s", "s"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.distinct_traces", "count"),
    ("sim.useful_ratio", "ratio"),
    ("core.covers", "count"),
    ("core.cover_s", "s"),
    ("mc.kinduction.checks", "count"),
    ("mc.kinduction.s", "s"),
    ("solver.bitblast_s", "s"),
    ("solver.vars", "count"),
    ("solver.clauses", "count"),
    ("solver.preprocess_s", "s"),
    ("solver.solve_calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("cert.drat_checks", "count"),
    ("cert.drat_s", "s"),
    ("cert.replays", "count"),
    ("cert.replay_s", "s"),
    ("cert.failed", "count"),
    ("mc.bmc.checks", "count"),
    ("mc.bmc.s", "s"),
    ("mc.portfolio.checks", "count"),
    ("mc.portfolio.s", "s"),
    ("fuzz.designs", "count"),
    ("fuzz.checks", "count"),
    ("fuzz.disagreements", "count"),
    ("fuzz.oracle_s", "s"),
    ("engine.jobs", "count"),
    ("engine.retries", "count"),
    ("engine.overhead_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

# metric -> the layer whose self time it reports
BUSY = {
    "rtl.build_s": "rtl.build",
    "ift.instrument_s": "ift",
    "designs.contexts_s": "designs",
    "sim.compile_s": "sim.compile",
    "sim.s": "sim",
    "core.cover_s": "core",
    "mc.kinduction.s": "mc.kinduction",
    "solver.bitblast_s": "solver.bitblast",
    "solver.preprocess_s": "solver.preprocess",
    "solver.solve_s": "solver.solve",
    "cert.drat_s": "cert.drat",
    "cert.replay_s": "cert.replay",
    "mc.bmc.s": "mc.bmc",
    "mc.portfolio.s": "mc.portfolio",
    "fuzz.oracle_s": "fuzz.oracle",
    "engine.overhead_s": "engine",
}

# counts that must repeat exactly when the same campaign is traced twice
REPEATED_COUNTS = tuple(
    name for name, unit in METRICS if unit == "count"
) + ("sim.useful_ratio",)


class LayerTracer:
    """Self time per layer and work counts of one traced campaign."""

    def __init__(self):
        self.busy = defaultdict(float)  # layer -> self seconds
        self.counts = defaultdict(int)  # count metric -> value
        self._stack = []  # per open span: seconds covered by its children
        # netlists seen, kept alive so that their ids stay unique
        self._netlists = {}
        self._compiled = set()
        self._traces = set()
        self._solver_size = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ spans
    def wrap(self, layer, fn, after=None):
        """``fn`` timed as a span of ``layer``; ``after(args, kwargs,
        result)`` records work counts outside the span."""
        stack = self._stack
        busy = self.busy
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                start = clock()
                after(args, kwargs, result)
                spent = clock() - start
                busy["tracer"] += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return wrapper

    def patch(self, owner, name, layer, after=None, calls=None):
        """Wrap ``owner.name`` as a span of ``layer``; ``calls`` names a
        count of its calls, ``after`` a hook taking the work counts."""
        if calls is not None:
            def after(args, kwargs, result):
                self.counts[calls] += 1
        original = getattr(owner, name)
        wrapper = self.wrap(layer, original, after)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # ----------------------------------------------------- work counts
    def _after_instrument(self, args, kwargs, ift):
        self.counts["ift.cells"] += ift.netlist.num_cells

    def _after_compile(self, args, kwargs, result):
        netlist = args[0]
        self._netlists[id(netlist)] = netlist
        self._compiled.add(id(netlist))
        self.counts["sim.compile_calls"] += 1

    def _after_simulate(self, args, kwargs, rows):
        netlist = args[0].netlist
        self._netlists[id(netlist)] = netlist
        self._traces.add((id(netlist), hash(tuple(rows))))
        self.counts["sim.contexts"] += 1
        self.counts["sim.cycles"] += len(rows)

    def _after_solve(self, args, kwargs, verdict):
        solver = args[0]
        last = solver.last_solve
        counts = self.counts
        counts["solver.solve_calls"] += 1
        counts["solver.conflicts"] += last["conflicts"]
        counts["solver.propagations"] += last["propagations"]
        # per solver, the formula size at its latest solve: add growth only
        prev_vars, prev_clauses = self._solver_size.get(solver, (0, 0))
        counts["solver.vars"] += last["vars"] - prev_vars
        counts["solver.clauses"] += last["clauses"] - prev_clauses
        self._solver_size[solver] = (last["vars"], last["clauses"])

    def _after_certificate(self, metric):
        def after(args, kwargs, cert):
            verified = cert.get("verified")
            if metric == "cert.replays" or verified is not None:
                self.counts[metric] += 1
            if verified is False:
                self.counts["cert.failed"] += 1

        return after

    def _after_record(self, args, kwargs, result):
        # Rtl2MuPath._record(name, outcome, started, detail, engine, ...)
        engine = kwargs.get("engine", args[5] if len(args) > 5 else None)
        if engine != "k-induction":
            self.counts["core.covers"] += 1

    def _after_groups(self, args, kwargs, groups):
        self.counts["designs.contexts"] += sum(len(g.contexts) for g in groups)

    def _after_engine_run(self, args, kwargs, outcome):
        self.counts["engine.retries"] += outcome.manifest.retries

    def _after_check_design(self, args, kwargs, report):
        self.counts["fuzz.designs"] += 1
        self.counts["fuzz.checks"] += report.checks
        self.counts["fuzz.disagreements"] += len(report.disagreements)

    # ---------------------------------------------------------- report
    def metrics(self, traced_wall):
        """Every per-layer metric but ``trace_overhead_frac``, which needs
        an untraced campaign; ``traced_wall`` is the wall time since
        :func:`install`, set-up included."""
        counts = self.counts
        out = {name: 0 for name, _unit in METRICS}
        for name in out:
            if name in BUSY:
                out[name] = self.busy.get(BUSY[name], 0.0)
            elif name in counts:
                out[name] = counts[name]
        out["sim.compile_netlists"] = len(self._compiled)
        out["sim.distinct_traces"] = len(self._traces)
        if out["sim.s"] > 0:
            out["sim.cycles_per_s"] = counts["sim.cycles"] / out["sim.s"]
        if counts["sim.contexts"]:
            out["sim.useful_ratio"] = len(self._traces) / counts["sim.contexts"]
        out["unattributed_s"] = traced_wall - sum(self.busy.values())
        del out["trace_overhead_frac"]
        return out


def install():
    """Import every boundary module, wrap its boundaries, and return the
    tracer that collects their spans and counts."""
    mod = {name: importlib.import_module(name) for name in MODULES}
    cert = mod["repro.cert"]
    scheduler = mod["repro.engine.scheduler"]
    provider = mod["repro.designs.harness"].CoreContextProvider
    rtl2mupath = mod["repro.core.rtl2mupath"].Rtl2MuPath
    synthlc = mod["repro.core.synthlc"].SynthLC
    bmc = mod["repro.mc.bmc"].BmcContext
    portfolio = mod["repro.mc.portfolio"].PortfolioEngine

    t = LayerTracer()
    t.patch(mod["repro.designs.core"], "build_core", "rtl.build")
    t.patch(mod["repro.fuzz.gen"], "build_design", "rtl.build")
    t.patch(mod["repro.ift.cellift"], "instrument_ift", "ift",
            after=t._after_instrument)
    t.patch(provider, "mupath_groups", "designs", after=t._after_groups)
    t.patch(provider, "taint_groups", "designs", after=t._after_groups)
    t.patch(mod["repro.sim.simulator"], "compile_netlist", "sim.compile",
            after=t._after_compile)
    t.patch(mod["repro.mc.enumerative"], "simulate_context", "sim",
            after=t._after_simulate)
    for method in ("duv_pl_reachability", "synthesize", "synthesize_all"):
        t.patch(rtl2mupath, method, "core")
    t.patch(rtl2mupath, "_record", "core", after=t._after_record)
    t.patch(synthlc, "classify", "core")
    t.patch(synthlc, "_record", "core", calls="core.covers")
    t.patch(mod["repro.mc.kinduction"], "prove_unreachable_kinduction",
            "mc.kinduction", calls="mc.kinduction.checks")
    t.patch(bmc, "__init__", "mc.bmc")
    t.patch(bmc, "check", "mc.bmc", calls="mc.bmc.checks")
    t.patch(portfolio, "check", "mc.portfolio", calls="mc.portfolio.checks")
    t.patch(mod["repro.solver.bitblast"], "blast_frame", "solver.bitblast")
    t.patch(mod["repro.solver.preprocess"], "preprocess", "solver.preprocess")
    t.patch(mod["repro.solver.sat"].SatSolver, "solve", "solver.solve",
            after=t._after_solve)
    t.patch(cert, "drat_certificate", "cert.drat",
            after=t._after_certificate("cert.drat_checks"))
    for name in ("witness_certificate", "cover_witness_certificate"):
        t.patch(cert, name, "cert.replay",
                after=t._after_certificate("cert.replays"))
    t.patch(mod["repro.fuzz.campaign"], "check_design", "fuzz.oracle",
            after=t._after_check_design)
    t.patch(scheduler.JobScheduler, "run", "engine", after=t._after_engine_run)
    t.patch(scheduler, "_run_job_with_retries", "engine", calls="engine.jobs")
    return t
