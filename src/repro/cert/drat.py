"""A pure-Python backward DRAT (RUP) proof checker.

Checks the proof logs :class:`~repro.solver.sat.SatSolver` emits when
built with ``proof=True``.  A log is a sequence of entries
``(tag, lits)`` over DIMACS literals:

* ``"i"`` -- an input (axiom) clause, taken on trust: it is part of the
  formula whose unsatisfiability is being certified;
* ``"a"`` -- an *addition* (CDCL-learned clause, preprocessing
  derivation, validated clause-sharing import): must have the RUP
  property against everything logged before it;
* ``"d"`` -- an advisory deletion.  The checker ignores deletions:
  checking against a superset of the solver's live database only makes
  the implied-clause test easier to pass for real derivations and is
  therefore sound for RUP-only (DRAT-without-RAT) logs -- a clause is
  never *added* on the strength of a deletion.

The terminal lemma of an UNSAT verdict (the negation of the assumption
core; the empty clause for a root refutation) is checked first, against
the whole certified log prefix, and the check runs *backward*: only
lemmas the terminal conflict (transitively) depends on are themselves
checked, each against the strict prefix that precedes it.  Antecedent
marking uses the propagation reason graph, so a forged-but-unused entry
is ignored while a forged load-bearing entry fails its own RUP check.

:class:`ProofLogChecker` reads one solver's log in the solver's flat
layout (one tag byte per entry in a ``bytearray``, a zero-terminated
literal stream in an ``array('q')``) and is append-only: each
:meth:`~ProofLogChecker.ingest` parses only the entries logged since the
last one, and each :meth:`~ProofLogChecker.check` skips lemmas an
earlier successful check already verified.  An incremental solver's log
only ever grows, so a lemma's prefix -- and with it the outcome of its
RUP check -- never changes once logged.

This module deliberately shares no code with the solver: it rebuilds
watch lists and propagation from the logged clauses alone, so it cannot
inherit a solver soundness bug.
"""

from __future__ import annotations

import gc
import heapq
import operator
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "check_proof",
    "verify_model",
    "ProofCheckOutcome",
    "ProofLogChecker",
    "ProofLogError",
]

_ADD = ord("a")
_DEL = ord("d")


@dataclass
class ProofCheckOutcome:
    status: str  # "ok" | "failed" | "budget"
    detail: str = ""
    lemmas_checked: int = 0
    steps: int = 0
    # load-bearing lemmas an earlier check had already verified
    lemmas_reused: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ProofLogError(ValueError):
    """The log no longer extends what the checker has already read."""


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _dedupe(encs: List[int]) -> Optional[List[int]]:
    """Drop duplicate literals; None for a tautology.

    Logs carry clauses as the caller wrote them, and a clause holding
    duplicate literals must not masquerade as a wider (non-unit) clause
    here.  A tautology is never falsifiable and never forcing; as a
    lemma, trivially RUP -- so it is not a clause at all.
    """
    seen: set = set()
    out: List[int] = []
    for enc in encs:
        if enc ^ 1 in seen:
            return None
        if enc not in seen:
            seen.add(enc)
            out.append(enc)
    return out


class ProofLogChecker:
    """Append-only backward RUP checker over one solver's proof log.

    ``log`` returns the live ``(tags, lits)`` buffers (see
    :meth:`~repro.solver.sat.SatSolver.proof_log`); they are only read.
    The checker keeps the birth-ordered clauses with their watches,
    units and empty clauses, the set of lemmas already verified, and the
    canonical-JSON encoding of every entry read so far (``["i",[1,-2]]``
    joined by commas) so certificate digests never re-encode the log.
    """

    def __init__(self, log: Callable[[], Tuple[bytearray, array]]):
        self._log = log
        self.entries = 0  # log entries ingested
        self._lit_pos = 0  # literal-stream offset of the next entry
        self._broken = ""
        self._tail = (0, array("q"))  # last entry's tag and literal run
        # clauses[ci] = encoded literals; ci is the birth index over the
        # log's non-deletion, non-tautology entries
        self.clauses: List[List[int]] = []
        self._lemma = bytearray()  # 1 = addition, 0 = input
        self._verified = bytearray()  # 1 = RUP with every antecedent
        self._clause_ends = array("q")  # clauses born by entry i
        self._json = bytearray()
        self._json_ends = array("q")  # encoding length through entry i
        # watches[enc] -> clause indices watching enc (the clause's first
        # two literal slots, swapped in place as watches move)
        self.watch: Dict[int, List[int]] = defaultdict(list)
        self.units: List[Tuple[int, int]] = []  # (birth ci, enc)
        self.empties: List[int] = []  # birth indices of empty clauses
        self.val: List[int] = [0, 0]
        self.reason: List[Optional[int]] = [None]
        self.trail: List[int] = []
        self.steps = 0

    # --------------------------------------------------------------- ingest
    def ingest(self, upto: int) -> int:
        """Read entries ``[entries, upto)``; returns how many were new.

        Raises :class:`ProofLogError` when the log is shorter than what
        was already read (it is no longer the log the verified lemmas
        came from) or than ``upto``.
        """
        if self._broken:
            raise ProofLogError(self._broken)
        tags, lits = self._log()
        if not self._extends(tags, lits):
            self._broken = (
                f"proof log ({len(tags)} entries) no longer extends the "
                f"{self.entries} entries already ingested"
            )
            raise ProofLogError(self._broken)
        if upto > len(tags):
            raise ProofLogError(
                f"proof log has {len(tags)} entries, {upto} requested"
            )
        start = self.entries
        if upto <= start:
            return 0
        # the parse allocates one list per clause, all of which stay
        # reachable: the cyclic collector's scans would free nothing
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._ingest(tags, lits, start, upto)
        finally:
            if gc_was_enabled:
                gc.enable()
        return upto - start

    def _extends(self, tags, lits) -> bool:
        """Whether the log still ends its first ``entries`` entries with
        the last entry ingested (a truncated log that grew back does not)."""
        if len(tags) < self.entries or len(lits) < self._lit_pos:
            return False
        if not self.entries:
            return True
        tag, tail = self._tail
        return (
            tags[self.entries - 1] == tag
            and lits[self._lit_pos - len(tail) : self._lit_pos] == tail
        )

    def _ingest(self, tags, lits, start: int, upto: int) -> None:
        first = self._lit_pos
        if upto == len(tags):
            stop = len(lits)
        else:
            stop = first
            index = lits.index
            try:
                for _ in range(upto - start):
                    stop = index(0, stop) + 1
            except ValueError:
                raise ProofLogError(
                    "proof log tags and literal stream disagree"
                ) from None
        seg = lits[first:stop].tolist()
        tag_bytes = tags[start:upto]
        tag_chars = tag_bytes.decode("latin-1")
        if tag_chars.strip("iad"):
            raise ProofLogError("proof log entry tag is not one of i/a/d")
        self._encode(tag_chars, seg)
        self._grow(max(max(seg), -min(seg)))
        clauses = self.clauses
        append_clause = clauses.append
        lemma = self._lemma.append
        watch = self.watch
        clause_end = self._clause_ends.append
        # encoded literals; each entry's 0 terminator becomes 1, which no
        # literal encodes (variables start at 1)
        encs = [(l << 1) if l > 0 else ((-l) << 1) | 1 for l in seg]
        index = seg.index
        pos = 0
        ci = len(clauses)
        for tag in tag_bytes:
            last = pos
            end = index(0, pos)
            if tag != _DEL:
                clause = encs[pos:end]
                # fast path: the binary and ternary gate clauses that
                # make up most of a log, over distinct variables
                k = end - pos
                if k == 3:
                    a, b, c = clause
                    va, vb, vc = a >> 1, b >> 1, c >> 1
                    fast = va != vb and va != vc and vb != vc
                elif k == 2:
                    a, b = clause
                    fast = a >> 1 != b >> 1
                else:
                    fast = False
                if fast:
                    append_clause(clause)
                    lemma(tag == _ADD)
                    watch[a].append(ci)
                    watch[b].append(ci)
                    ci += 1
                else:
                    ci = self._add_clause(clause, tag == _ADD, ci)
            pos = end + 1
            clause_end(ci)
        self._verified.extend(bytes(len(clauses) - len(self._verified)))
        self._tail = (tag_bytes[-1], lits[first + last : stop])
        self._lit_pos = stop
        self.entries = upto

    def _add_clause(self, clause: List[int], is_lemma: bool, ci: int) -> int:
        """Add clause ``ci`` of any shape; returns the next birth index."""
        if len({e >> 1 for e in clause}) != len(clause):
            clause = _dedupe(clause)
            if clause is None:
                return ci
        self.clauses.append(clause)
        self._lemma.append(is_lemma)
        if len(clause) > 1:
            self.watch[clause[0]].append(ci)
            self.watch[clause[1]].append(ci)
        elif clause:
            self.units.append((ci, clause[0]))
        else:
            self.empties.append(ci)
        return ci + 1

    def _encode(self, tag_chars: str, seg: List[int]) -> None:
        """Append the canonical JSON of entries to the cached encoding.

        ``["i",[1,-2]]`` per entry, comma-joined, built with string
        operations over the whole segment: tags are letters and literals
        are signed integers, so a tag followed by ``,`` (or by the entry
        separator) can only open an entry.
        """
        # per-entry literal text with a leading comma ("" = empty
        # clause); literal 0 is only ever a terminator
        parts = ("," + str(seg)[1:-1].replace(" ", "")).split(",0")
        if len(parts) != len(tag_chars) + 1:
            raise ProofLogError("proof log tags and literal stream disagree")
        del parts[-1]
        text = "\x01".join(map(operator.add, tag_chars, parts)) + "\x01"
        for tag in set(tag_chars):
            opened = '["%s",[' % tag
            text = text.replace(tag + "\x01", opened + "\x01")
            text = text.replace(tag + ",", opened)
        text = text.replace("\x01", "]],")[:-1]
        # ["t",[LITS]] is len(part) + 7 characters, or 8 when empty;
        # each entry's end offset leaves out its separating comma
        sizes = [len(part) + 8 for part in parts]
        if "" in parts:
            for i, part in enumerate(parts):
                if not part:
                    sizes[i] += 1
        if self._json:
            self._json += b","
        ends = accumulate(sizes, initial=len(self._json) - 1)
        next(ends)
        self._json_ends.extend(ends)
        self._json += text.encode("ascii")

    def _grow(self, num_vars: int) -> None:
        missing = num_vars + 1 - len(self.reason)
        if missing > 0:
            self.reason.extend([None] * missing)
            self.val.extend([0] * (2 * missing))

    def encoded(self, upto: int) -> bytes:
        """Canonical JSON of entries ``[0, upto)``, comma-joined."""
        if upto > self.entries:
            raise ProofLogError(
                f"{self.entries} entries ingested, {upto} requested"
            )
        return bytes(self._json[: self._json_ends[upto - 1]]) if upto else b""

    # ------------------------------------------------------------ assignment
    def _assign(self, enc: int, reason: Optional[int]) -> Optional[int]:
        """Make ``enc`` true; returns a conflicting clause index or None."""
        val = self.val
        if val[enc] == 1:
            return None
        if val[enc] == -1:
            # enc already false: the clause forcing it conflicts with the
            # assignment's existing reason chain
            return reason
        val[enc] = 1
        val[enc ^ 1] = -1
        self.reason[enc >> 1] = reason
        self.trail.append(enc)
        return None

    def _undo(self) -> None:
        val = self.val
        for enc in self.trail:
            val[enc] = 0
            val[enc ^ 1] = 0
        del self.trail[:]

    # ----------------------------------------------------------- propagation
    def _propagate(self, limit: int, qhead: int) -> Optional[int]:
        """Propagate to fixpoint over clauses born before ``limit``."""
        val = self.val
        trail = self.trail
        clauses = self.clauses
        watch = self.watch
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            wl = watch.get(false_lit)
            if not wl:
                continue
            j = 0
            i = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                self.steps += 1
                if ci >= limit:
                    wl[j] = ci
                    j += 1
                    continue
                lits = clauses[ci]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if val[first] == 1:
                    wl[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if val[lk] != -1:
                        lits[1], lits[k] = lk, false_lit
                        watch[lk].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = ci
                j += 1
                if val[first] == -1:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return ci
                conflict = self._assign(first, ci)
                if conflict is not None:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return conflict
            del wl[j:]
        return None

    # -------------------------------------------------------------- marking
    def _need(self, ci: int, work: "_Work") -> None:
        """Queue lemma ``ci`` for checking unless verified or queued."""
        if not self._lemma[ci] or ci in work.needed:
            return
        work.needed.add(ci)
        if self._verified[ci]:
            work.reused += 1
        else:
            heapq.heappush(work.pending, -ci)

    def _mark(self, conflict_ci: int, work: "_Work") -> None:
        """Mark the lemmas the conflict's reason graph depends on."""
        clauses = self.clauses
        reason = self.reason
        visited = set()
        stack = [conflict_ci]
        while stack:
            ci = stack.pop()
            if ci in visited:
                continue
            visited.add(ci)
            self._need(ci, work)
            for enc in clauses[ci]:
                r = reason[enc >> 1]
                if r is not None and r not in visited:
                    stack.append(r)

    def _mark_chain(self, enc: int, work: "_Work") -> None:
        r = self.reason[enc >> 1]
        if r is not None:
            self._mark(r, work)

    # ------------------------------------------------------------- RUP check
    def rup(self, lemma_encs: Sequence[int], limit: int, work: "_Work") -> bool:
        """True iff the lemma is RUP against clauses born before ``limit``."""
        try:
            for ci in self.empties:
                if ci < limit:
                    # an empty clause precedes the lemma: everything is
                    # implied (but a *derived* empty clause must itself
                    # be justified, so mark it)
                    self._need(ci, work)
                    return True
            conflict = None
            # unit axioms/lemmas first: their closure is the root state
            for ci, enc in self.units:
                if ci >= limit:
                    continue
                conflict = self._assign(enc, ci)
                if conflict is not None:
                    break
            if conflict is None:
                # assume the negation of the lemma
                for enc in lemma_encs:
                    if self.val[enc] == 1:
                        # lemma satisfied by the unit closure (or it is a
                        # tautology): trivially implied -- but the units
                        # that satisfy it must themselves be justified
                        self._mark_chain(enc, work)
                        return True
                    if self.val[enc] == -1:
                        continue
                    conflict = self._assign(enc ^ 1, None)
                    if conflict is not None:
                        break
            if conflict is None:
                conflict = self._propagate(limit, 0)
            if conflict is None:
                return False
            self._mark(conflict, work)
            return True
        finally:
            self._undo()

    def check(
        self,
        final: Sequence[int],
        upto: int,
        max_seconds: Optional[float] = None,
    ) -> ProofCheckOutcome:
        """Backward-check the log prefix ``[0, upto)`` against ``final``.

        ``final`` is the clause the UNSAT verdict claims (empty = the
        empty clause).  Returns ``ok`` when the terminal lemma and every
        addition it depends on are RUP, ``failed`` with a pinpointing
        detail otherwise, and ``budget`` when ``max_seconds`` ran out
        first (a skip, not a refutation).  Lemmas are marked verified
        only when the whole check succeeds: a failed or budgeted check
        may have passed a lemma whose antecedents it never reached.
        """
        deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )
        self.ingest(upto)
        steps = self.steps
        limit = self._clause_ends[upto - 1] if upto else 0
        final_encs = [_enc(l) for l in final]
        self._grow(max((e >> 1 for e in final_encs), default=0))
        work = _Work()
        if not self.rup(final_encs, limit, work):
            return ProofCheckOutcome(
                "failed", "terminal lemma is not implied (RUP check failed)"
            )
        # additions newest-first: marking during a lemma's check only
        # queues clauses born before it, so the heap's max is always the
        # next lemma the backward walk would reach
        checked: List[int] = []
        while work.pending:
            ci = -heapq.heappop(work.pending)
            if deadline is not None and time.monotonic() > deadline:
                return ProofCheckOutcome(
                    "budget",
                    f"time budget exhausted after {len(checked)} lemmas",
                    len(checked),
                    self.steps - steps,
                    work.reused,
                )
            if not self.rup(self.clauses[ci], ci, work):
                return ProofCheckOutcome(
                    "failed",
                    f"addition #{ci} is not RUP against its prefix",
                    len(checked),
                    self.steps - steps,
                    work.reused,
                )
            checked.append(ci)
        for ci in checked:
            self._verified[ci] = 1
        return ProofCheckOutcome(
            "ok", "", len(checked), self.steps - steps, work.reused
        )


class _Work:
    """One check's marking state: lemmas seen, lemmas still to check."""

    __slots__ = ("needed", "pending", "reused")

    def __init__(self):
        self.needed: set = set()
        self.pending: List[int] = []  # max-heap of birth indices, negated
        self.reused = 0


def check_proof(
    entries: Sequence[Tuple[str, Sequence[int]]],
    final: Sequence[int] = (),
    max_seconds: Optional[float] = None,
) -> ProofCheckOutcome:
    """One-shot backward check of a proof log given as ``(tag, lits)`` tuples.

    Packs the tuples into the solver's flat layout and runs a fresh
    :class:`ProofLogChecker` over all of them; see
    :meth:`ProofLogChecker.check` for the outcome.
    """
    tags = bytearray()
    lits = array("q")
    for tag, clause in entries:
        if 0 in clause:
            raise ProofLogError("literal 0 in a proof entry")
        tags.append(ord(tag))
        lits.extend(clause)
        lits.append(0)
    checker = ProofLogChecker(lambda: (tags, lits))
    return checker.check(final, len(tags), max_seconds)


def verify_model(
    entries: Sequence[Tuple[str, Sequence[int]]], model
) -> Tuple[bool, str]:
    """Check a claimed model satisfies every input clause of a log.

    ``model`` maps a variable to its truth value (a dict or a callable).
    Only ``"i"`` entries are consulted -- additions are consequences, so
    a model of the inputs satisfies them too.  This is the SAT-side
    counterpart of :func:`check_proof`: a solver that answered SAT with
    a corrupt model (the flipped-bit mutation) fails here.
    """
    lookup = model if callable(model) else model.get
    for index, (tag, lits) in enumerate(entries):
        if tag != "i":
            continue
        satisfied = False
        for lit in lits:
            value = lookup(abs(lit))
            if bool(value) == (lit > 0):
                satisfied = True
                break
        if not satisfied:
            return False, f"input clause #{index} {tuple(lits)} is falsified"
    return True, ""
