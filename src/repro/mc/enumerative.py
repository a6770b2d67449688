"""Enumerative (explicit-context) model-checking engine.

This engine exhaustively simulates a *finite context family* -- a declared
set of (initial architectural state, input sequence) pairs -- and evaluates
cover queries concretely over the recorded traces.  Within its family it is
both sound and complete: a cover is REACHABLE iff some enumerated trace
satisfies it.  When the family had to be truncated (sampled), negative
verdicts degrade to UNDETERMINED, mirroring the resource-limited verdicts
of a commercial model checker.

Why it exists: the paper evaluates ~160k SVA properties at minutes per
property on a Xeon cluster.  Our designs are width-scaled so that the
relevant context space is small enough to enumerate, which turns each of
those minutes into microseconds while preserving the verdicts.  The
SAT-based :mod:`repro.mc.bmc` engine answers the same queries symbolically
and is cross-checked against this engine in the test suite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..props.query import Query
from ..props.views import ConcreteOps, ConcreteTraceView
from ..sim.simulator import Simulator
from ..rtl.netlist import Netlist
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats

__all__ = [
    "Context",
    "ReactiveContext",
    "TraceDB",
    "EnumerativeEngine",
    "simulate_context",
    "stimulus_key",
]


@dataclass(frozen=True)
class Context:
    """One concrete execution context.

    ``reset_overrides`` assigns initial values to architectural registers
    (the paper's "only architectural state is symbolically initialized");
    ``input_sequence`` drives the DUV's primary inputs cycle by cycle.
    """

    reset_overrides: Tuple[Tuple[str, int], ...]
    input_sequence: Tuple[Tuple[Tuple[str, int], ...], ...]
    label: str = ""

    @staticmethod
    def make(reset_overrides: Dict[str, int], inputs: Sequence[Dict[str, int]], label=""):
        return Context(
            reset_overrides=tuple(sorted(reset_overrides.items())),
            input_sequence=tuple(
                tuple(sorted(cycle.items())) for cycle in inputs
            ),
            label=label,
        )


@dataclass(frozen=True)
class ReactiveContext:
    """A context whose inputs react to observations (e.g. fetch handshakes).

    ``driver_factory()`` returns a fresh callable ``f(t, prev_obs) -> dict``
    invoked once per cycle; ``prev_obs`` is the previous cycle's observation
    dict (None at t=0), letting program drivers replay instructions until
    the DUV's fetch interface accepts them.  The factory must be
    deterministic: equal factories drive equal stimuli (see
    :func:`stimulus_key`).
    """

    reset_overrides: Tuple[Tuple[str, int], ...]
    driver_factory: Callable[[], Callable]
    horizon: int
    label: str = ""
    # the named signals the driver reads from prev_obs; keeping this list
    # small avoids materializing every observable as a dict each cycle
    feedback_signals: Tuple[str, ...] = ("fetch_ready", "pipe_quiesce")

    @staticmethod
    def make(reset_overrides: Dict[str, int], driver_factory, horizon: int, label="",
             feedback_signals=("fetch_ready", "pipe_quiesce")):
        return ReactiveContext(
            reset_overrides=tuple(sorted(reset_overrides.items())),
            driver_factory=driver_factory,
            horizon=horizon,
            label=label,
            feedback_signals=tuple(feedback_signals),
        )


def simulate_context(simulator: Simulator, context) -> List[Tuple[int, ...]]:
    """Reset ``simulator`` and drive one context through it, returning rows.

    Shared between :class:`TraceDB` (which builds views for many queries)
    and cover-witness replay (:mod:`repro.cert`), which re-drives the
    same stimulus through a *fresh* simulator so its check is independent
    of the rows the original verdict was read from.
    """
    simulator.reset(dict(context.reset_overrides))
    if isinstance(context, ReactiveContext):
        # hand the driver a minimal dict of its declared feedback
        # signals instead of materializing every observable
        index = getattr(simulator, "_observable_index", None)
        if index is None:
            index = {
                name: i for i, name in enumerate(simulator.observable_names)
            }
            simulator._observable_index = index
        feedback = [
            (name, index[name])
            for name in context.feedback_signals
            if name in index
        ]
        driver = context.driver_factory()
        rows = []
        prev_obs = None
        for t in range(context.horizon):
            row = simulator.step_tuple(driver(t, prev_obs))
            rows.append(row)
            prev_obs = {name: row[i] for name, i in feedback}
        return rows
    return [
        simulator.step_tuple(dict(cycle_inputs))
        for cycle_inputs in context.input_sequence
    ]


def stimulus_key(context) -> Tuple:
    """Content key of ``context``: every field but its ``label``.

    Contexts with equal keys drive the same stimulus and so simulate to
    the same rows.  The harness driver factories are frozen dataclasses
    compared by value; any other factory compares by identity.
    """
    if isinstance(context, ReactiveContext):
        return (context.reset_overrides, context.driver_factory,
                context.horizon, context.feedback_signals)
    return (context.reset_overrides, context.input_sequence)


class TraceDB:
    """Simulated traces for a context family, reusable across many queries.

    Each distinct :func:`stimulus_key` is simulated once, and contexts
    whose rows are equal share one view: different stimuli often drive
    a design to the same trace.  ``contexts`` and ``views`` stay
    parallel, one entry per context in the given order; ``distinct``
    holds ``(index of first context, view)`` for each distinct view, in
    first-occurrence order, so per-view work can run once per view.
    """

    def __init__(self, netlist: Netlist, contexts: Iterable, complete: bool):
        self.netlist = netlist
        self.complete = complete
        self.contexts: List = []
        self.views: List[ConcreteTraceView] = []
        self.distinct: List[Tuple[int, ConcreteTraceView]] = []
        with obs.span("tracedb.build", netlist=netlist.name) as sp:
            simulator = Simulator(netlist)
            names = simulator.observable_names
            by_key: Dict[Tuple, ConcreteTraceView] = {}
            by_rows: Dict[Tuple, ConcreteTraceView] = {}
            cycles = 0
            for context in contexts:
                key = stimulus_key(context)
                view = by_key.get(key)
                if view is None:
                    rows = simulate_context(simulator, context)
                    cycles += len(rows)
                    content = tuple(rows)
                    view = by_rows.get(content)
                    if view is None:
                        view = ConcreteTraceView(rows, names=names)
                        by_rows[content] = view
                        self.distinct.append((len(self.views), view))
                    by_key[key] = view
                self.contexts.append(context)
                self.views.append(view)
            sp.set("contexts", len(self.contexts))
            sp.set("simulated", len(by_key))
            sp.set("traces", len(self.distinct))
            sp.set("cycles", cycles)

    def __len__(self):
        return len(self.views)


class EnumerativeEngine:
    """Checks queries against a :class:`TraceDB`."""

    name = "enumerative"

    def __init__(self, tracedb: TraceDB, stats: Optional[PropertyStats] = None):
        self.tracedb = tracedb
        self.stats = stats

    def check(self, query: Query) -> CheckResult:
        start = time.perf_counter()
        ops = ConcreteOps
        db = self.tracedb
        witness = None
        outcome = UNREACHABLE if db.complete else UNDETERMINED
        # contexts sharing a view share its verdict, so each distinct view
        # is evaluated once, at its first context: the scan stops at the
        # same context, with the same depth, as a scan of every context
        scanned = len(db)
        depth = 0
        for first, view in db.distinct:
            depth = max(depth, view.horizon)
            if not self._satisfies_assumes(view, query.assumes):
                continue
            if query.prop.evaluate(view, ops):
                outcome = REACHABLE
                witness = view.as_dicts()
                scanned = first + 1
                break
        elapsed = time.perf_counter() - start
        result = CheckResult(
            query_name=query.name,
            outcome=outcome,
            engine=self.name,
            witness=witness,
            time_seconds=elapsed,
            detail="" if db.complete else "context family truncated",
            depth=depth,
            solver={"contexts_scanned": scanned, "contexts_total": len(db)},
        )
        if self.stats is not None:
            self.stats.record(result)
            obs.note_property(outcome, elapsed)
        return result

    @staticmethod
    def _satisfies_assumes(view, assumes):
        ops = ConcreteOps
        for expr in assumes:
            for t in range(view.horizon):
                if not expr.evaluate(view, t, ops):
                    return False
        return True
