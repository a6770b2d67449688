"""Compile cache and per-TraceDB dedup, checked differentially.

``compile_netlist`` memoizes one compile per netlist object and
:class:`TraceDB` simulates each distinct :func:`stimulus_key` once, then
shares one view among all contexts whose rows are equal.  The reference
here is the plain path: every context of a family driven through a
simulator built from a fresh, uncached compile.
"""

import dataclasses
import gc
import glob
import os
import random
import weakref

import pytest

from repro import obs
from repro.core.mhb import extract_path
from repro.core.rtl2mupath import VisitIndex
from repro.core.synthlc import _TaintIndex, instrument_design
from repro.designs import (
    ContextFamilyConfig,
    CoreContextProvider,
    build_core,
    isa,
)
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.designs.harness import TaintSpec, program_driver_factory
from repro.designs.variants import build_cva6_op, oppack_driver_factory
from repro.fuzz import OracleConfig, build_design, sample_spec
from repro.fuzz.campaign import load_reproducer
from repro.fuzz.oracle import _input_sequences, _queries
from repro.mc.enumerative import (
    Context,
    EnumerativeEngine,
    ReactiveContext,
    TraceDB,
    simulate_context,
    stimulus_key,
)
from repro.mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE
from repro.props import ConcreteOps, ConcreteTraceView, Eventually, Query, none_of, sig
from repro.rtl import Module, elaborate, mux
from repro.sim import Simulator, simulator as simulator_mod

X4_FAMILY = ContextFamilyConfig(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
GEN_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def core_x4():
    return build_core(CoreConfig(xlen=4))


@pytest.fixture
def uncached_simulator(monkeypatch):
    """Builds simulators from a fresh compile that bypasses the cache."""

    def build(netlist):
        with monkeypatch.context() as patch:
            patch.setattr(simulator_mod, "compile_netlist", simulator_mod._compile)
            return Simulator(netlist)

    return build


def assert_matches_reference(db, contexts, reference_sim):
    """Every context's rows equal a plain re-simulation, and two contexts
    share a view iff their rows are equal; returns the number of views."""
    assert len(db.contexts) == len(contexts) == len(db.views)
    assert [c.label for c in db.contexts] == [c.label for c in contexts]
    first_view = {}
    first_index = {}
    for i, (context, view) in enumerate(zip(db.contexts, db.views)):
        rows = simulate_context(reference_sim, context)
        assert view.cycles == rows
        assert view.names == reference_sim.observable_names
        assert first_view.setdefault(tuple(rows), view) is view
        first_index.setdefault(id(view), i)
    assert len({id(v) for v in db.views}) == len(first_view)
    assert db.distinct == [
        (first_index[id(view)], view) for view in first_view.values()
    ]
    return len(first_view)


def traced_span_attrs(name, body):
    """Run ``body()`` under a tracer; the end attrs of its ``name`` spans."""
    collector = obs.SpanCollector()
    tracer = obs.activate(obs.Tracer(sink=collector))
    try:
        result = body()
    finally:
        obs.deactivate(tracer)
    attrs = [
        fields["attrs"]
        for kind, fields in collector.records
        if kind == "span_end" and fields["name"] == name
    ]
    return result, attrs


def _counter():
    m = Module("dedup_counter")
    en = m.input("en", 1)
    c = m.reg("count", 4, reset=0)
    c.next = mux(en, c.q + 1, c.q)
    m.name_signal("value", c.q)
    return elaborate(m)


class TestCompileCache:
    def test_step_shared_names_copied(self):
        netlist = _counter()
        step_a, names_a = simulator_mod.compile_netlist(netlist)
        step_b, names_b = simulator_mod.compile_netlist(netlist)
        assert step_a is step_b
        assert names_a == names_b and names_a is not names_b
        names_a.append("mutated")
        assert Simulator(netlist).observable_names == names_b

    def test_distinct_netlists_compile_separately(self):
        a, b = _counter(), _counter()
        assert simulator_mod.compile_netlist(a)[0] is not (
            simulator_mod.compile_netlist(b)[0]
        )

    def test_entry_dies_with_netlist(self):
        netlist = _counter()
        Simulator(netlist)
        ref = weakref.ref(netlist)
        assert netlist in simulator_mod._COMPILED
        del netlist
        gc.collect()
        assert ref() is None

    def test_spans_report_hit_and_miss(self):
        netlist = _counter()
        _, spans = traced_span_attrs(
            "sim.compile", lambda: [Simulator(netlist) for _ in range(2)]
        )
        assert [attrs["cache"] for attrs in spans] == ["miss", "hit"]


class TestStimulusKey:
    def test_label_ignored(self):
        a = Context.make({"count": 1}, [{"en": 1}], label="a")
        b = Context.make({"count": 1}, [{"en": 1}], label="b")
        assert stimulus_key(a) == stimulus_key(b)
        assert stimulus_key(a) != stimulus_key(
            Context.make({"count": 2}, [{"en": 1}], label="a")
        )

    def test_driver_factories_compare_by_value(self):
        word = isa.encode("ADD", rd=1, rs1=2, rs2=3)
        spec = TaintSpec(pc=4, rs1=True)
        make = lambda label, taint=spec: ReactiveContext.make(
            {"arf_w1": 1},
            program_driver_factory([("feed", (word,))], taint=taint),
            horizon=10,
            label=label,
        )
        assert stimulus_key(make("x")) == stimulus_key(make("y"))
        assert stimulus_key(make("x")) != stimulus_key(make("x", taint=None))

    def test_other_factories_compare_by_identity(self):
        def factory():
            return lambda t, prev_obs: {}

        def twin():
            return lambda t, prev_obs: {}

        same = [ReactiveContext.make({}, factory, horizon=3, label=l) for l in "ab"]
        other = ReactiveContext.make({}, twin, horizon=3)
        assert stimulus_key(same[0]) == stimulus_key(same[1])
        assert stimulus_key(same[0]) != stimulus_key(other)


class TestTraceDBDifferential:
    @pytest.mark.parametrize("iuv", ["DIV", "LW"])
    def test_mupath_groups_x4(self, core_x4, uncached_simulator, iuv):
        provider = CoreContextProvider(xlen=4, config=X4_FAMILY)
        reference = uncached_simulator(core_x4.netlist)
        for group in provider.mupath_groups(iuv):
            db = TraceDB(core_x4.netlist, group.contexts, group.complete)
            assert_matches_reference(db, group.contexts, reference)

    def test_taint_groups_ift_x4(self, core_x4, uncached_simulator):
        provider = CoreContextProvider(
            xlen=4, config=dataclasses.replace(X4_FAMILY, instrumented=True)
        )
        ift = instrument_design(core_x4)
        reference = uncached_simulator(ift.netlist)
        groups = [
            group
            for assumption in ("intrinsic", "dynamic_older", "static")
            for group in provider.taint_groups("LW", "DIV", assumption, "rs1")
        ]
        assert groups
        total = simulated = traces = 0
        for group in groups:
            db = TraceDB(ift.netlist, group.contexts, group.complete)
            traces += assert_matches_reference(db, group.contexts, reference)
            simulated += len({stimulus_key(c) for c in group.contexts})
            total += len(group.contexts)
        # the family repeats stimuli, and distinct stimuli repeat traces
        assert traces < simulated < total

    def test_cache_provider(self, uncached_simulator):
        design = build_cache()
        provider = CacheContextProvider()
        reference = uncached_simulator(design.netlist)
        for group in provider.mupath_groups("ST"):
            db = TraceDB(design.netlist, group.contexts, group.complete)
            assert_matches_reference(db, group.contexts, reference)

    def test_oppack_duplicates_share_views(self, uncached_simulator):
        design = build_cva6_op()
        add0 = isa.encode("ADD", rd=1, rs1=2, rs2=3)
        add1 = isa.encode("ADD", rd=4, rs1=5, rs2=6)
        programs = [
            [(add0, add1)],
            [(add0, None), (add1, None)],
            [(add0, add1)],  # equal to the first, built separately
            [(add1, add0)],
        ]
        contexts = [
            ReactiveContext.make(
                {"arf_w2": 1}, oppack_driver_factory(pairs), horizon=12,
                label="op%d" % i,
            )
            for i, pairs in enumerate(programs + programs[:2])
        ]
        db = TraceDB(design.netlist, contexts, complete=True)
        reference = uncached_simulator(design.netlist)
        assert assert_matches_reference(db, contexts, reference) == 3
        assert db.views[0] is db.views[2] is db.views[4]
        assert db.views[1] is db.views[5]
        assert db.views[0] is not db.views[3]

    def test_build_span_counts(self, core_x4):
        group = CoreContextProvider(xlen=4, config=X4_FAMILY).mupath_groups("LW")[0]
        contexts = list(group.contexts) + list(group.contexts[:3])
        db, (attrs,) = traced_span_attrs(
            "tracedb.build",
            lambda: TraceDB(core_x4.netlist, contexts, group.complete),
        )
        by_stimulus = {}
        for context, view in zip(db.contexts, db.views):
            by_stimulus.setdefault(stimulus_key(context), view)
        distinct = {id(v) for v in db.views}
        assert attrs["contexts"] == len(contexts)
        assert attrs["simulated"] == len(by_stimulus) < len(contexts)
        assert attrs["traces"] == len(distinct) < attrs["simulated"]
        assert attrs["cycles"] == sum(len(v.cycles) for v in by_stimulus.values())


def fresh_views(contexts, reference_sim):
    """One freshly simulated, unshared view per context."""
    return [
        ConcreteTraceView(
            simulate_context(reference_sim, context),
            names=reference_sim.observable_names,
        )
        for context in contexts
    ]


def reference_check(views, complete, query):
    """``CheckResult.to_dict()`` of a scan evaluating every context's own
    view in order (``time_seconds`` left out)."""
    ops = ConcreteOps
    outcome = UNREACHABLE if complete else UNDETERMINED
    witness = None
    scanned = depth = 0
    for view in views:
        scanned += 1
        depth = max(depth, view.horizon)
        if not all(
            expr.evaluate(view, t, ops)
            for expr in query.assumes
            for t in range(view.horizon)
        ):
            continue
        if query.prop.evaluate(view, ops):
            outcome = REACHABLE
            witness = view.as_dicts()
            break
    return {
        "query_name": query.name,
        "outcome": outcome,
        "engine": "enumerative",
        "witness": witness,
        "detail": "" if complete else "context family truncated",
        "depth": depth,
        "solver": {"contexts_scanned": scanned, "contexts_total": len(views)},
    }


def generated_designs():
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert paths
    specs = [load_reproducer(path) for path in paths]
    specs += [sample_spec(seed) for seed in GEN_SEEDS]
    return [build_design(spec) for spec in specs]


def generated_contexts(design):
    """The fuzz oracle's input sequences for ``design``; every third one
    cut a cycle short, so that views of two horizons interleave."""
    config = OracleConfig()
    rng = random.Random(config.rng_seed ^ design.spec.seed)
    sequences, complete = _input_sequences(design, config, rng)
    contexts = [
        Context.make({}, seq[:-1] if i % 3 == 2 else seq, label="seq%d" % i)
        for i, seq in enumerate(sequences)
    ]
    return contexts, complete


def assumed_queries(design):
    """The oracle's queries, plus covers under an assume on each probe."""
    probes = design.probe_names
    queries = list(_queries(design))
    for hold in probes:
        for target in probes:
            queries.append(Query(
                "reach_%s_without_%s" % (target, hold),
                Eventually(sig(target)),
                assumes=(none_of(sig(hold)),),
            ))
    return queries


class TestSharedViewsDifferential:
    """Every consumer of shared views, against per-context recomputation."""

    def test_enumerative_check_on_generated_designs(self, uncached_simulator):
        outcomes = set()
        contexts_total = traces = shared_witnesses = 0
        for design in generated_designs():
            contexts, complete = generated_contexts(design)
            reference_sim = uncached_simulator(design.netlist)
            views = fresh_views(contexts, reference_sim)
            families = (
                (contexts, views, complete),
                (contexts[:16], views[:16], False),
            )
            for family, family_views, family_complete in families:
                db = TraceDB(design.netlist, family, family_complete)
                assert_matches_reference(db, family, reference_sim)
                engine = EnumerativeEngine(db)
                contexts_total += len(db)
                traces += len(db.distinct)
                for query in assumed_queries(design):
                    got = engine.check(query).to_dict()
                    del got["time_seconds"]
                    assert got == reference_check(
                        family_views, family_complete, query
                    ), (design.spec.name, query.name)
                    outcomes.add(got["outcome"])
                    if got["outcome"] == REACHABLE:
                        hit = db.views[got["solver"]["contexts_scanned"] - 1]
                        shared_witnesses += db.views.count(hit) > 1
        # the data exercises what sharing could get wrong
        assert outcomes == {REACHABLE, UNREACHABLE, UNDETERMINED}
        assert traces < contexts_total
        assert shared_witnesses

    @pytest.mark.parametrize("iuv", ["ADD", "DIV", "LW"])
    def test_visit_index_paths(self, core_x4, uncached_simulator, iuv):
        provider = CoreContextProvider(xlen=4, config=X4_FAMILY)
        reference_sim = uncached_simulator(core_x4.netlist)
        pls = core_x4.metadata.pls
        shared = 0
        for group in provider.mupath_groups(iuv):
            db = TraceDB(core_x4.netlist, group.contexts, group.complete)
            index = VisitIndex(db, core_x4.metadata, group.iuv_pc)
            assert index.paths == [
                extract_path(view, pls, group.iuv_pc)
                for view in fresh_views(group.contexts, reference_sim)
            ]
            shared += len(db) - len(db.distinct)
        assert shared

    def test_taint_index_traces(self, core_x4):
        provider = CoreContextProvider(
            xlen=4, config=dataclasses.replace(X4_FAMILY, instrumented=True)
        )
        ift = instrument_design(core_x4)
        shared = 0
        for assumption in ("intrinsic", "dynamic_older", "static"):
            for group in provider.taint_groups("LW", "DIV", assumption, "rs1"):
                t_pc = group.taint_pc
                assert t_pc is not None
                db = TraceDB(ift.netlist, group.contexts, group.complete)
                index = _TaintIndex(db, core_x4.metadata, group.iuv_pc, t_pc)
                assert index.traces == [
                    _TaintIndex(
                        TraceDB(ift.netlist, [context], group.complete),
                        core_x4.metadata, group.iuv_pc, t_pc,
                    ).traces[0]
                    for context in group.contexts
                ]
                shared += len(db) - len(db.distinct)
        assert shared
