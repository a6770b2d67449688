"""Compile cache and per-TraceDB stimulus dedup, checked differentially.

``compile_netlist`` memoizes one compile per netlist object and
:class:`TraceDB` simulates each distinct :func:`stimulus_key` once.  The
reference here is the plain path: every context of a family driven
through a simulator built from a fresh, uncached compile.
"""

import dataclasses
import gc
import weakref

import pytest

from repro import obs
from repro.core.synthlc import instrument_design
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
from repro.mc.enumerative import (
    Context,
    ReactiveContext,
    TraceDB,
    simulate_context,
    stimulus_key,
)
from repro.rtl import Module, elaborate, mux
from repro.sim import Simulator, simulator as simulator_mod

X4_FAMILY = ContextFamilyConfig(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)


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
    """Every context's rows equal a plain re-simulation; duplicates (and
    only duplicates) share a view."""
    assert len(db.contexts) == len(contexts) == len(db.views)
    assert [c.label for c in db.contexts] == [c.label for c in contexts]
    first_view = {}
    for context, view in zip(db.contexts, db.views):
        assert view.cycles == simulate_context(reference_sim, context)
        assert view.names == reference_sim.observable_names
        key = stimulus_key(context)
        assert first_view.setdefault(key, view) is view
    assert len({id(v) for v in db.views}) == len(first_view)
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
        total = simulated = 0
        for group in groups:
            db = TraceDB(ift.netlist, group.contexts, group.complete)
            simulated += assert_matches_reference(db, group.contexts, reference)
            total += len(group.contexts)
        assert simulated < total  # the family does repeat stimuli

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
        distinct = list({id(v): v for v in db.views}.values())
        assert attrs["contexts"] == len(contexts)
        assert attrs["simulated"] == len(distinct) < len(contexts)
        assert attrs["cycles"] == sum(len(v.cycles) for v in distinct)
