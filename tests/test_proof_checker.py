"""Tests for the append-only DRAT checker (``drat.ProofLogChecker``).

An incremental context's certificates all cut prefixes from one growing
proof log, and one checker per log parses each entry once and skips
lemmas an earlier check verified.  The suite pins that this changes
nothing a certificate says:

* differential -- every certificate an xlen=4 incremental induction
  context (four queries on one shared log) and a ``BmcContext`` emit has
  the ``(status, verified, digest)`` of the one-shot path:
  :func:`check_proof` over ``proof_entries()[:n]``, digest from the
  materialized payload;
* mutation -- a forged load-bearing addition appended to the shared log
  between two queries, and a log truncated below what was already read,
  fail the next certificate; a forged lemma stays failed on a re-check;
  a lemma verified by one query is reused, never re-checked, by the next;
* spot mode -- the non-incremental k-induction path never materializes a
  proof log for an unsampled query.
"""

from __future__ import annotations

import json
from array import array

import pytest

import repro.cert
from repro.cert import (
    CertifyPolicy,
    payload_digest,
    verify_certificate_digest,
)
from repro.cert.drat import ProofLogChecker, ProofLogError, check_proof
from repro.designs import build_core
from repro.designs.core import CoreConfig
from repro.fuzz.campaign import load_reproducer
from repro.fuzz.gen import build_design
from repro.mc import BmcContext
from repro.mc.incremental import InductionPool
from repro.mc.kinduction import prove_unreachable_kinduction
from repro.mc.outcomes import UNREACHABLE
from repro.obs.tracer import SpanCollector, Tracer, activate, deactivate
from repro.props import Eventually, Query, sig
from repro.solver.sat import UNSAT, SatSolver

from test_cert import _corpus_paths

FULL = CertifyPolicy.from_mode("full")
INDUCTION_K = 8


def _solver_of(checker):
    """The solver whose log ``checker`` reads (its ``proof_log`` method)."""
    return checker._log.__self__


def _one_shot(legs):
    """The reference certificate fields for checked legs, from tuples."""
    payload = {"legs": {}}
    status = "verified"
    for label, (checker, count, final) in legs.items():
        entries = _solver_of(checker).proof_entries(0, count)
        payload["legs"][label] = {
            "entries": [[tag, list(lits)] for tag, lits in entries],
            "final": list(final),
        }
        if status == "verified" and not check_proof(entries, final).ok:
            status = "failed"
    return {
        "status": status,
        "verified": {"verified": True, "failed": False}.get(status),
        "digest": payload_digest(payload),
        "payload": payload,
    }


class _Recorder:
    """Wraps ``repro.cert.drat_certificate``; pairs each checked bundle
    with its one-shot reference and its ``cert.check`` span attributes."""

    def __init__(self, monkeypatch):
        self.records = []
        self.sink = SpanCollector()
        self.tracer = Tracer(sink=self.sink)
        original = repro.cert.drat_certificate

        def recorded(legs, policy, name="", overflow=False):
            reference = _one_shot(legs)
            cert = original(legs, policy, name=name, overflow=overflow)
            self.records.append((name, legs, reference, cert))
            return cert

        monkeypatch.setattr(repro.cert, "drat_certificate", recorded)

    def spans(self):
        return [
            fields["attrs"]
            for kind, fields in self.sink.records
            if kind == "span_end" and fields["name"] == "cert.check"
        ]


def _same_fields(cert, reference):
    return (cert["status"], cert["verified"], cert["digest"]) == (
        reference["status"],
        reference["verified"],
        reference["digest"],
    )


def _truncate(solver, entries):
    """Cut ``solver``'s live proof log back to its first ``entries``."""
    tags, lits = solver.proof_log()
    pos = 0
    for _ in range(entries):
        pos = lits.index(0, pos) + 1
    del tags[entries:]
    del lits[pos:]


# ------------------------------------------------------------- the x4 core
@pytest.fixture(scope="module")
def core_x4():
    return build_core(CoreConfig(xlen=4))


def _prove_candidates(core, recorder, between=None):
    """Prove every candidate PL unreachable on one shared pool context.

    ``between(step_solver)`` runs after the first query's certificate.
    """
    pool = InductionPool(coi=True, certify=FULL)
    results = []
    activate(recorder.tracer)
    try:
        for name, pl in core.metadata.candidate_pls.items():
            results.append(
                pool.prove(
                    core.netlist, pl.occupied(), k=INDUCTION_K, certify=FULL
                )
            )
            if between is not None and len(results) == 1:
                between(_solver_of(recorder.records[0][1]["step"][0]))
    finally:
        deactivate(recorder.tracer)
    return results


@pytest.fixture(scope="module")
def incremental_run(core_x4):
    with pytest.MonkeyPatch.context() as mp:
        recorder = _Recorder(mp)
        results = _prove_candidates(core_x4, recorder)
    return results, recorder


class TestIncrementalDifferential:
    def test_queries_share_one_log(self, incremental_run):
        results, recorder = incremental_run
        assert len(recorder.records) >= 3
        assert all(r.outcome == UNREACHABLE for r in results)
        steps = {id(legs["step"][0]) for _, legs, _, _ in recorder.records}
        assert len(steps) == 1, "queries did not share one step checker"

    def test_every_certificate_matches_one_shot(self, incremental_run):
        _, recorder = incremental_run
        for name, _, reference, cert in recorder.records:
            assert reference["status"] == "verified", name
            assert _same_fields(cert, reference), name
            assert verify_certificate_digest(cert)

    def test_span_work_counts(self, incremental_run):
        _, recorder = incremental_run
        spans = recorder.spans()
        assert len(spans) == len(recorder.records)
        assert all(s["status"] == "verified" for s in spans)
        first, later = spans[0], spans[1:]
        # the first certificate parses both logs; later ones only what
        # their query appended
        assert first["entries_ingested"] > 100_000
        assert all(s["entries_ingested"] < 1_000 for s in later)
        assert first["lemmas_reused"] == 0
        assert sum(s["lemmas_reused"] for s in later) > 0

    def test_verified_lemmas_are_reused_not_rechecked(self, incremental_run):
        """Replay the step legs, in query order, on a fresh checker."""
        _, recorder = incremental_run
        legs = [legs["step"] for _, legs, _, _ in recorder.records]
        checker = ProofLogChecker(_solver_of(legs[0][0]).proof_log)
        verified, rechecked, reused = set(), [], []
        for _, count, final in legs:
            limits = []
            rup = checker.rup

            def spy(lemma, limit, work, rup=rup, limits=limits):
                limits.append(limit)
                return rup(lemma, limit, work)

            checker.rup = spy
            try:
                outcome = checker.check(final, count)
            finally:
                del checker.rup
            assert outcome.ok, outcome.detail
            lemmas = limits[1:]  # the first call checks the terminal lemma
            assert len(lemmas) == outcome.lemmas_checked
            rechecked.extend(set(lemmas) & verified)
            verified.update(lemmas)
            reused.append(outcome.lemmas_reused)
        assert not rechecked, "verified lemmas were checked again"
        assert reused[0] == 0
        assert sum(reused[1:]) > 0


class TestIncrementalMutations:
    def test_forged_addition_between_queries_fails_next(self, core_x4):
        def forge(step_solver):
            # an unjustified empty clause: every later lemma leans on it
            tags, lits = step_solver.proof_log()
            tags.append(ord("a"))
            lits.append(0)

        with pytest.MonkeyPatch.context() as mp:
            recorder = _Recorder(mp)
            results = _prove_candidates(core_x4, recorder, between=forge)
        first, second = results[0].certificate, results[1].certificate
        assert first["verified"] is True
        assert second["status"] == "failed"
        assert second["verified"] is False
        assert "step" in second["detail"]
        # the one-shot path over the same forged log agrees
        _, _, reference, cert = recorder.records[1]
        assert _same_fields(cert, reference)

    def test_truncated_log_fails_next(self, core_x4):
        def truncate(step_solver):
            _truncate(step_solver, step_solver.proof_length() - 5)

        with pytest.MonkeyPatch.context() as mp:
            recorder = _Recorder(mp)
            results = _prove_candidates(core_x4, recorder, between=truncate)
        assert results[0].certificate["verified"] is True
        for result in results[1:]:
            cert = result.certificate
            assert cert["status"] == "failed", cert
            assert "no longer extends" in cert["detail"]
            assert verify_certificate_digest(cert)


# --------------------------------------------------------------------- BMC
def _bmc_design():
    for path in _corpus_paths():
        design = build_design(load_reproducer(path))
        ctx = BmcContext(design.netlist, horizon=4, complete_horizon=True)
        probe = design.probe_names[0]
        result = ctx.check(Query("p", Eventually(sig(probe))))
        if result.outcome == UNREACHABLE:
            return design, probe
    pytest.skip("corpus has no UNREACHABLE BMC query")


class TestBmcDifferential:
    def test_shared_log_certificates_match_one_shot(self, monkeypatch):
        design, probe = _bmc_design()
        recorder = _Recorder(monkeypatch)
        ctx = BmcContext(
            design.netlist, horizon=4, complete_horizon=True, certify=FULL
        )
        for name in ("first", "second", "third"):
            result = ctx.check(Query(name, Eventually(sig(probe))))
            assert result.outcome == UNREACHABLE
        assert len(recorder.records) == 3
        checkers = {id(legs["proof"][0]) for _, legs, _, _ in recorder.records}
        assert len(checkers) == 1, "queries did not share one checker"
        for name, _, reference, cert in recorder.records:
            assert _same_fields(cert, reference), name
            assert cert["status"] == "verified"
            # a small log keeps its payload, byte-identical to the
            # one-shot materialization
            assert cert["payload"] == reference["payload"]
            assert verify_certificate_digest(cert)


def _flat(entries):
    """The zero-terminated literal stream of ``(tag, lits)`` entries."""
    lits = array("q")
    for _, clause in entries:
        lits.extend(clause)
        lits.append(0)
    return lits


# ----------------------------------------------------------- checker units
class TestCheckerUnits:
    ENTRIES = [
        ("i", (1, 2)),
        ("i", (3, 3, -4)),  # duplicate literal
        ("i", (5, -5, 6)),  # tautology
        ("d", (1, 2)),
        ("i", ()),  # empty clause
        ("a", (-1234567, 7, 8, 9)),
        ("i", (2,)),
    ]

    def _checker(self, entries):
        tags = bytearray(ord(tag) for tag, _ in entries)
        lits = _flat(entries)
        return ProofLogChecker(lambda: (tags, lits)), tags, lits

    def test_encoding_matches_canonical_json_at_every_prefix(self):
        checker, _, _ = self._checker(self.ENTRIES)
        checker.ingest(3)
        checker.ingest(len(self.ENTRIES))
        for n in range(len(self.ENTRIES) + 1):
            expected = json.dumps(
                [[tag, list(lits)] for tag, lits in self.ENTRIES[:n]],
                separators=(",", ":"),
            ).encode()
            assert b"[" + checker.encoded(n) + b"]" == expected, n

    def test_ingest_reads_only_new_entries(self):
        checker, _, _ = self._checker(self.ENTRIES)
        assert checker.ingest(2) == 2
        assert checker.ingest(2) == 0
        assert checker.ingest(len(self.ENTRIES)) == len(self.ENTRIES) - 2
        with pytest.raises(ProofLogError):
            checker.ingest(len(self.ENTRIES) + 1)

    def test_truncation_below_ingested_raises(self):
        checker, tags, lits = self._checker(self.ENTRIES)
        checker.ingest(len(self.ENTRIES))
        del tags[-1]
        del lits[-2:]
        with pytest.raises(ProofLogError, match="no longer extends"):
            checker.ingest(len(tags))
        # and stays refused even once the log grows back past it
        tags += b"ii"
        lits.extend((1, 0, 2, 0))
        with pytest.raises(ProofLogError):
            checker.ingest(len(tags))

    def test_truncated_certificate_fails(self):
        s = SatSolver(preprocess=False, proof=True)
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        s.add_clause([a, -b])
        s.add_clause([-a, -b])
        assert s.solve() == UNSAT
        checker = ProofLogChecker(s.proof_log)
        leg = (checker, s.proof_length(), s.final_lemma())
        assert repro.cert.drat_certificate({"proof": leg}, FULL)["verified"]
        _truncate(s, 2)
        leg = (checker, s.proof_length(), s.final_lemma())
        cert = repro.cert.drat_certificate({"proof": leg}, FULL)
        assert cert["status"] == "failed"
        assert cert["verified"] is False
        assert verify_certificate_digest(cert)

    def test_forged_lemma_stays_failed_on_recheck(self):
        """A failed check must not mark its lemmas verified."""
        checker, tags, _ = self._checker(
            [("i", (1, 2)), ("i", (-1, 2)), ("a", (-2,))]  # forged (-2)
        )
        for _ in range(2):
            outcome = checker.check((), len(tags))
            assert outcome.status == "failed"
            assert outcome.lemmas_reused == 0

    def test_budget_does_not_mark_lemmas_verified(self):
        s = SatSolver(preprocess=False, proof=True)
        a, b, c = (s.new_var() for _ in range(3))
        for clause in ([a, b], [a, -b, c], [-a, c], [-c, b], [-b, -c]):
            s.add_clause(clause)
        assert s.solve() == UNSAT
        checker = ProofLogChecker(s.proof_log)
        final = s.final_lemma()
        first = checker.check(final, s.proof_length(), max_seconds=-1.0)
        assert first.status == "budget"
        second = checker.check(final, s.proof_length())
        assert second.ok
        assert second.lemmas_reused == 0
        assert second.lemmas_checked > 0
        third = checker.check(final, s.proof_length())
        assert third.ok
        assert third.lemmas_checked == 0
        assert third.lemmas_reused == second.lemmas_checked

    def test_unknown_tag_is_refused(self):
        checker, _, _ = self._checker([("i", (1,)), ("x", (2,))])
        with pytest.raises(ProofLogError):
            checker.ingest(2)


# ---------------------------------------------------------------- spot mode
class TestSpotKinduction:
    def test_unsampled_query_never_materializes_the_log(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("proof_entries() called for an unsampled leg")

        for path in _corpus_paths():
            design = build_design(load_reproducer(path))
            if not design.netlist.registers:
                continue
            for probe in design.probe_names:
                bad = sig(probe)
                name = "kind(%r)" % (bad,)
                policy = next(
                    CertifyPolicy(mode="spot", spot_modulus=m)
                    for m in range(2, 64)
                    if not CertifyPolicy(
                        mode="spot", spot_modulus=m
                    ).should_check_proof(name)
                )
                with monkeypatch.context() as mp:
                    mp.setattr(SatSolver, "proof_entries", forbidden)
                    proof = prove_unreachable_kinduction(
                        design.netlist, bad, k=2, certify=policy
                    )
                if proof.outcome != UNREACHABLE:
                    continue
                cert = proof.certificate
                assert cert["kind"] == "drat"
                assert cert["status"] == "skipped"
                assert cert["verified"] is None
                assert cert["payload"] is None
                assert cert["payload_dropped"] is True
                return
        pytest.skip("corpus produced no UNREACHABLE induction proof")
