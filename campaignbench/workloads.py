"""The benchmark's campaign workloads.

Each workload has three steps, run in one fresh process per campaign:

* ``setup()`` imports the library layers it needs, builds the
  design, runs IFT instrumentation where the workload needs it, and
  constructs the providers and tools.  Its wall time is ``setup_s``.
* ``campaign(state)`` is the timed campaign (``wall_s``, ``cpu_s``).
* ``outputs(state, result)`` turns the campaign's results into plain
  JSON: every verdict, the canonical uPATH sets, the SynthLC labels, and
  a list of ``problems`` (failed or unchecked certificates, fuzz
  disagreements).  It runs after the clock stops.

All three are serial, single-process campaigns with fixed inputs, so
every campaign of a workload does the same work.  See README.md for why
each one was chosen and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import json

# xlen=4 core, the INCR_BENCH family: horizon 30, one DIV neighbour,
# operand values {0, 1}
X4_FAMILY = dict(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)
PROVE_IUVS = ("DIV",)
PROVE_INDUCTION_K = 8
SYNTHLC_IUVS = ("LW",)
SYNTHLC_TRANSMITTERS = ("DIV",)
FUZZ_DESIGNS = 20
FUZZ_HORIZON = 4
# the fuzz campaign's own seed, which fixes its 20 designs
FUZZ_SEED = 1000


def _verdicts(results):
    return sorted([r.query_name, r.outcome] for r in results)


def _undetermined(results):
    from repro.mc.outcomes import UNDETERMINED

    return sum(1 for r in results if r.outcome == UNDETERMINED)


class ProveX4:
    """DUV PL reachability plus synthesis with every verdict certified."""

    name = "prove-x4"

    def setup(self):
        from repro.core import Rtl2MuPath
        from repro.core.rtl2mupath import Rtl2MuPathConfig
        from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
        from repro.designs.core import CoreConfig

        design = build_core(CoreConfig(xlen=4))
        provider = CoreContextProvider(
            xlen=4, config=ContextFamilyConfig(**X4_FAMILY)
        )
        return Rtl2MuPath(
            design,
            provider,
            config=Rtl2MuPathConfig(
                induction_k=PROVE_INDUCTION_K, certify="full"
            ),
        )

    def campaign(self, tool):
        tool.duv_pl_reachability(PROVE_IUVS)
        return tool.synthesize_all(PROVE_IUVS)

    def outputs(self, tool, results):
        from repro.fuzz.metamorphic import canonical_mupaths

        stats = tool.stats.results
        problems = []
        for r in stats:
            cert = r.certificate
            if isinstance(cert, dict) and cert.get("verified") is False:
                problems.append("certificate failed: %s" % r.query_name)
            if r.engine == "k-induction" and not (
                isinstance(cert, dict) and cert.get("verified") is True
            ):
                problems.append(
                    "k-induction certificate not checked: %s (%s)"
                    % (r.query_name, (cert or {}).get("status"))
                )
        return {
            "verdicts": _verdicts(stats),
            "mupaths": json.loads(canonical_mupaths(results)),
            "verdict_count": len(stats),
            "undetermined": _undetermined(stats),
            "problems": problems,
        }


class SynthLCX4:
    """uPATH synthesis through the engine, then SynthLC leakage
    classification on the IFT core."""

    name = "synthlc-x4"

    def setup(self):
        from repro.core import Rtl2MuPath, SynthLC
        from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
        from repro.designs.core import CoreConfig
        from repro.engine import EngineConfig, JobScheduler

        design = build_core(CoreConfig(xlen=4))
        family = ContextFamilyConfig(**X4_FAMILY)
        tool = Rtl2MuPath(design, CoreContextProvider(xlen=4, config=family))
        taint_provider = CoreContextProvider(
            xlen=4, config=dataclasses.replace(family, instrumented=True)
        )
        engine = JobScheduler(EngineConfig(jobs=1))
        return tool, SynthLC(design, taint_provider), engine

    def campaign(self, state):
        tool, synthlc, engine = state
        # synthesis runs through the engine's inline (jobs=1) path
        results = tool.synthesize_all(SYNTHLC_IUVS, engine=engine)
        return results, synthlc.classify(
            results, transmitters=list(SYNTHLC_TRANSMITTERS)
        )

    def outputs(self, state, result):
        from repro.fuzz.metamorphic import canonical_contracts, canonical_mupaths

        results, classified = result
        stats = state[0].stats.results + state[1].stats.results
        return {
            "verdicts": _verdicts(stats),
            "mupaths": json.loads(canonical_mupaths(results)),
            "labels": json.loads(canonical_contracts(classified)),
            "verdict_count": len(stats),
            "undetermined": _undetermined(stats),
            "problems": [],
        }


class Fuzz20:
    """A differential fuzz campaign over 20 generated designs."""

    name = "fuzz-20"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self):
        from repro.fuzz import CampaignConfig, OracleConfig

        return CampaignConfig(
            seed=FUZZ_SEED,
            budget_seconds=1e9,  # never binds: max_designs ends the campaign
            out_dir=self.out_dir,
            max_designs=FUZZ_DESIGNS,
            shrink=True,
            oracle=OracleConfig(horizon=FUZZ_HORIZON),
        )

    def campaign(self, config):
        from repro.fuzz import run_campaign

        return run_campaign(config)

    def outputs(self, config, result):
        problems = [
            "fuzz disagreement: %s" % d.brief() for d in result.disagreements
        ]
        if result.designs != FUZZ_DESIGNS:
            problems.append(
                "campaign checked %d of %d designs"
                % (result.designs, FUZZ_DESIGNS)
            )
        return {
            "verdicts": sorted(result.verdicts.items()),
            "verdict_count": sum(result.verdicts.values()),
            "undetermined": result.undetermined,
            "problems": problems,
        }


WORKLOADS = (ProveX4, SynthLCX4, Fuzz20)
NAMES = tuple(cls.name for cls in WORKLOADS)


def make(name, out_dir):
    """The workload called ``name``; fuzz reproducers go to ``out_dir``."""
    if name == Fuzz20.name:
        return Fuzz20(out_dir)
    return next(cls for cls in WORKLOADS if cls.name == name)()
