"""SAT-based combinational equivalence checking of two netlists.

:func:`check_equivalence` builds a *miter*: every matched root pair —
primary outputs by name plus flip-flop *data* pins by register name — is
XOR-ed over shared leaf variables (primary inputs by name, flip-flop
outputs by register name), and the disjunction of the XORs is asserted.
The formula is satisfiable exactly when some input/state assignment makes
the designs disagree, so **UNSAT proves equivalence**.

The check is a sequence of stage functions over one small context
(:class:`_Miter`), each owning its ``cec.*`` span:

1. **lower** (``cec.lower``) — both netlists are lowered into *one*
   shared hash-consed :class:`~repro.netlist.aig.AIG` over common
   input/latch nodes, so any logic the two designs share merges in the
   unique table before the solver ever sees it: root pairs that hash to
   the same literal are proven structurally, for free.
2. **simcheck** (``cec.simcheck``) — the miter AIG is simulated under a
   batch of packed random patterns
   (:func:`~repro.netlist.sim.aig_signatures`); any pattern on which a
   root pair disagrees *is* a complete counterexample, replayed without a
   single solver conflict.
3. **sweep** (``cec.sweep``) — FRAIG-style SAT sweeping of the miter,
   shared with the optimizer via
   :func:`~repro.netlist.opt.fraig.fraig_sweep_map`: internal points the
   designs implement identically but with different structure merge under
   incremental, assumption-gated SAT, and root pairs whose cones collapse
   onto one literal are *sweep-proven*.  The patterns that refuted sweep
   candidates re-run the simcheck on the surviving pairs.
4. **decide** (:func:`decide`) — structure-aware encoding of the
   surviving cones with one disagreement variable ``z_i`` per pair and
   the clause ``OR(z_i)`` (``cec.encode``,
   :func:`~repro.netlist.sat.cnf.encode_aig_cone`), SatELite-style CNF
   preprocessing with the shared input/state variables and the ``z_i``
   frozen (``cec.preprocess``), then one incremental CDCL solver that
   proves the pairs one at a time, smallest cone first, each proven
   pair asserted equal (``¬z_i``) for the next query, with saved phases
   seeded from the simulation signatures and VSIDS activity from cone
   fanout (``cec.solve``); model readback at the first SAT query, and
   DRAT certification of the whole loop (``cec.certify``).  With
   ``jobs > 1`` the partition workers of
   :mod:`~repro.netlist.sat.partition` run this same function on their
   shards (``cec.parallel`` / ``cec.partition``).
5. **replay** (``cec.replay``) — a SAT verdict is never returned raw: the
   assignment is replayed through the compiled simulation engine on both
   netlists (:func:`replay_counterexample`) to confirm the disagreement
   and name the differing signals, guarding against encoder bugs.

Matching registers by name makes this a register-correspondence sequential
check: optimization passes preserve flip-flop names, so proving every
matched next-state function and every output function equal proves the
machines equal from any matched state.  Registers swept away by the
optimizer are allowed — their Q nets stay as free variables of the original
netlist only, so a register that still mattered would show up as an output
or next-state disagreement.

Certification survives every stage: preprocessing emits RUP-checkable DRAT
steps into the same proof log the solver extends, the decide loop logs
each proven pair's ``¬z_i`` as a lemma, sweep merges are certified
per-merge inside the sweep, and an UNSAT verdict is checked against the
*original* (pre-preprocessing) CNF.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ...obs import attach_solver_progress, get_tracer
from ..aig import AIG, insert_netlist
from ..elaborate import _split_bit_name
from ..logic import Netlist
from ..sim import aig_signatures, simulate_compiled
from .cnf import CNF, aig_lit_sat, encode_aig_cone
from .preprocess import preprocess as simplify_cnf
from .proof import ProofLog, check_drat
from .solver import Solver, SolverResult, SolverStats

#: ``sweep="auto"`` runs the miter sweep only on differing cones at least
#: this many AND nodes large — smaller miters solve faster than they
#: sweep.
_SWEEP_MIN_ANDS = 256
#: ...and only when at least this fraction of those AND nodes lands in a
#: multi-member candidate class under the stage-1 simulation signatures.
#: Sweeping pays when the miter is full of internal points the designs
#: compute identically (same-origin designs after optimization); on
#: structure-free miters (cross-implementation arithmetic) every sweep
#: query is a hard monolithic proof and one guided top-level solve wins.
_SWEEP_MIN_DENSITY = 0.2

#: Why a replayed assignment that shows no disagreement is a bug, by the
#: stage that produced it.
_REPLAY_ERRORS = {
    "simulation": "miter simulation disagrees but netlist replay does not "
                  "(AIG lowering bug)",
    "solver": "solver returned a model but simulation shows no "
              "disagreement (CNF encoding bug)",
}


class CECError(Exception):
    """Raised when two netlists cannot be compared (interface mismatch)."""


@dataclass
class Counterexample:
    """A distinguishing assignment found by the solver, already replayed.

    ``inputs`` maps primary-input bit names to 0/1 and ``state`` maps
    flip-flop names to their assumed current value; ``diff`` lists the
    ``(kind, name, before_value, after_value)`` disagreements observed when
    simulating both netlists under that assignment (kind is ``"output"`` or
    ``"next_state"``).
    """

    inputs: dict[str, int]
    state: dict[str, int]
    diff: list[tuple[str, str, int, int]]

    def packed_inputs(self) -> dict[str, int]:
        """Pack the per-bit input assignment into word-level port values,
        ready for :func:`repro.netlist.simulate_vectors` or
        :meth:`repro.netlist.Interpreter.step`."""
        return _pack_words(self.inputs)

    def packed_state(self) -> dict[str, int]:
        """Pack the per-bit register assignment into word-level values keyed
        by dotted hierarchical names, ready for
        :meth:`repro.netlist.Interpreter.load_state`."""
        return _pack_words(self.state)


def _pack_words(bits: dict[str, int]) -> dict[str, int]:
    words: dict[str, int] = {}
    for name, bit in bits.items():
        base, index = _split_bit_name(name)
        words[base] = words.get(base, 0) | (int(bit) << index)
    return words


@dataclass
class EquivalenceResult:
    """Verdict of :func:`check_equivalence`."""

    equivalent: bool
    counterexample: Optional[Counterexample] = None
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: Number of (output + next-state) functions compared by the miter.
    compared: int = 0
    #: Wall time spent building the miter (lowering, simulation checks,
    #: Tseitin encoding) vs solving it.  CNF preprocessing is in neither:
    #: it is ``preprocessor["seconds"]``.
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Size of the CNF handed to the solver (before preprocessing).
    cnf_vars: int = 0
    cnf_clauses: int = 0
    #: Root pairs proven equal structurally (identical AIG literals in the
    #: shared unique table) — they never reach the solver.
    hash_proven: int = 0
    #: DRAT certification (``certify=True`` / ``proof=``).  ``proof_checked``
    #: is True/False when UNSAT evidence was run through the independent
    #: RUP checker (the top-level proof, the sweep's per-merge proofs, or
    #: both), and None when there was nothing to check: certification
    #: off, a SAT verdict (certified by the replayed counterexample
    #: instead), or a fully hash-proven miter that never reached the
    #: solver.
    proof_checked: Optional[bool] = None
    proof_clauses: int = 0
    proof_bytes: int = 0
    proof_check_seconds: float = 0.0
    #: Root pairs whose cones the miter sweep merged (SAT-proven inside
    #: the shared AIG), and the wall time the sweep took less its proof
    #: checks (those are in ``proof_check_seconds``), so the stage times
    #: are disjoint.
    sweep_proven: int = 0
    sweep_seconds: float = 0.0
    #: True when the counterexample came from the packed-simulation check
    #: — the solver never ran (``solver_stats`` is all zeros).
    refuted_by_simulation: bool = False
    #: :class:`~repro.netlist.sat.preprocess.PreprocessStats` counters as
    #: a dict when CNF preprocessing ran, else None.
    preprocessor: Optional[dict] = None
    #: Worker-process count requested (``jobs=``) and the number of
    #: independent miter partitions actually solved.  ``partitions`` is 0
    #: when the staged pipeline settled the verdict before the solve
    #: (hash/sweep-proven, simulation-refuted) or the serial path ran.
    jobs: int = 1
    partitions: int = 0

    def __bool__(self) -> bool:
        return self.equivalent

    def to_report(self, certify: bool = False,
                  include_proof: Optional[bool] = None) -> dict:
        """The verdict as the JSON-ready ``equivalence`` report dict.

        One shape shared by every frontend (CLI ``--json``, the
        ``repro.server`` daemon, the bench tiers), so parallel and serial
        runs — and daemon and one-shot runs — are field-for-field
        comparable.  ``include_proof`` defaults to ``certify``; pass True
        to include the proof block for an uncertified-but-logged run.
        """
        report = {
            "equivalent": self.equivalent,
            "compared": self.compared,
            # The shared AIG miter is the only construction; the key stays
            # so reports keep one schema across versions.
            "encoding": "aig",
            "hash_proven": self.hash_proven,
            "cnf_vars": self.cnf_vars,
            "cnf_clauses": self.cnf_clauses,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "solver": self.solver_stats.to_dict(),
            "sweep_proven": self.sweep_proven,
            "sweep_seconds": self.sweep_seconds,
            "refuted_by_simulation": self.refuted_by_simulation,
            "preprocessor": self.preprocessor,
            "jobs": self.jobs,
            "partitions": self.partitions,
        }
        if include_proof is None:
            include_proof = certify
        if include_proof:
            report["proof"] = {
                "certified": bool(certify),
                "checked": self.proof_checked,
                "clauses": self.proof_clauses,
                "bytes": self.proof_bytes,
                "check_seconds": self.proof_check_seconds,
            }
        if not self.equivalent and self.counterexample is not None:
            report["counterexample"] = {
                "inputs": self.counterexample.packed_inputs(),
                "state": self.counterexample.packed_state(),
                "diff": self.counterexample.diff,
            }
        return report


@dataclass
class Decision:
    """Outcome of :func:`decide` on one miter (or, merged, on all shards).

    ``inputs`` / ``state`` are the model's leaf assignment by name (SAT
    only; leaves outside every encoded cone are absent).  ``partitions``
    is the shard count when the decision merges a parallel run, else 0.
    """

    satisfiable: bool
    inputs: Optional[dict[str, int]] = None
    state: Optional[dict[str, int]] = None
    stats: SolverStats = field(default_factory=SolverStats)
    cnf_vars: int = 0
    cnf_clauses: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    preprocessor: Optional[dict] = None
    proof_checked: Optional[bool] = None
    proof_clauses: int = 0
    proof_bytes: int = 0
    proof_check_seconds: float = 0.0
    partitions: int = 0


@dataclass
class _Miter:
    """The context the stages of :func:`check_equivalence` share."""

    before: Netlist
    after: Netlist
    #: The enclosing ``cec`` span (stages annotate it).
    span: Any
    certify: bool
    #: The working miter graph: the lowered AIG, or the swept one.
    aig: AIG
    #: Leaf literals by name in the *lowered* AIG (stimulus ``words`` are
    #: keyed by their node ids) and in the working ``aig``.
    pi_lits: dict[str, int]
    latch_lits: dict[str, int]
    in_lits: dict[str, int]
    st_lits: dict[str, int]
    #: Root pairs not yet proven, as ``(before_lit, after_lit)``.
    pairs: list[tuple[int, int]]
    compared: int
    hash_proven: int
    #: Packed stimulus per leaf node and the signatures it produced.
    words: Optional[dict[int, int]] = None
    num_patterns: int = 0
    sigs: Any = None
    sweep_stats: Any = None
    sweep_proven: int = 0
    sweep_seconds: float = 0.0
    #: Lowering + simulation-check wall time.
    encode_seconds: float = 0.0
    #: Worker processes used by the decide stage (1 when it ran serially).
    jobs: int = 1

    @property
    def mask(self) -> int:
        return (1 << self.num_patterns) - 1


def _interface(netlist: Netlist) -> tuple[dict[str, int], dict[str, int],
                                          dict[str, int]]:
    """(input name -> net, output name -> net, register name -> gid)."""
    inputs = {
        netlist.gates[gid].name or f"pi_{gid}": gid
        for gid in netlist.inputs
    }
    outputs = dict(netlist.outputs)
    return inputs, outputs, netlist.register_map()


def _check_interfaces(b_in: dict, a_in: dict,
                      b_out: dict, a_out: dict) -> None:
    if set(b_in) != set(a_in):
        only_b = sorted(set(b_in) - set(a_in))
        only_a = sorted(set(a_in) - set(b_in))
        raise CECError(
            f"primary inputs differ (only in before: {only_b}, "
            f"only in after: {only_a})"
        )
    if set(b_out) != set(a_out):
        only_b = sorted(set(b_out) - set(a_out))
        only_a = sorted(set(a_out) - set(b_out))
        raise CECError(
            f"primary outputs differ (only in before: {only_b}, "
            f"only in after: {only_a})"
        )


def _assert_disagreement(cnf: CNF,
                         pairs: list[tuple[int, int]]) -> list[int]:
    """Assert that at least one ``(b_var, a_var)`` pair differs.

    Returns the per-pair disagreement variables ``z_i`` (``z_i`` is true
    exactly when pair ``i`` differs); the clause ``OR(z_i)`` closes the
    miter.
    """
    disagree: list[int] = []
    for b_var, a_var in pairs:
        z = cnf.new_var()
        cnf.add_clause(-z, b_var, a_var)
        cnf.add_clause(-z, -b_var, -a_var)
        cnf.add_clause(z, -b_var, a_var)
        cnf.add_clause(z, b_var, -a_var)
        disagree.append(z)
    cnf.add_clause(*disagree)
    return disagree


def _lower(before: Netlist, after: Netlist, span, certify: bool) -> _Miter:
    """Stage 1: lower both netlists into one shared hash-consed miter AIG.

    Root pairs whose literals are already equal merged in the unique
    table; the rest become the context's ``pairs``.
    """
    start = time.perf_counter()
    b_in, b_out, b_regs = _interface(before)
    a_in, a_out, a_regs = _interface(after)
    _check_interfaces(b_in, a_in, b_out, a_out)
    tracer = get_tracer()

    aig = AIG(name=f"miter:{before.name}")
    pi_lits = {name: aig.add_input(name) for name in sorted(b_in)}
    latch_lits = {
        name: aig.add_latch(name)
        for name in sorted(set(b_regs) | set(a_regs))
    }
    shared_regs = sorted(set(b_regs) & set(a_regs))
    maps = []
    for netlist, inputs, regs in ((before, b_in, b_regs),
                                  (after, a_in, a_regs)):
        input_lits = {gid: pi_lits[name] for name, gid in inputs.items()}
        reg_lits = {gid: latch_lits[name] for name, gid in regs.items()}
        with tracer.span("cec.lower", design=netlist.name,
                         gates=netlist.num_gates):
            maps.append(insert_netlist(aig, netlist, input_lits, reg_lits))
    b_map, a_map = maps

    named_pairs = [("output", name, b_map[b_out[name]], a_map[a_out[name]])
                   for name in sorted(b_out)]
    named_pairs += [
        ("next_state", name,
         b_map[before.gates[b_regs[name]].fanins[0]],
         a_map[after.gates[a_regs[name]].fanins[0]])
        for name in shared_regs]
    if tracer.enabled:
        for kind, name, b, a in named_pairs:
            tracer.instant("cec.pair", kind=kind, name=name,
                           hash_proven=(b == a))
    pairs = [(b, a) for _, _, b, a in named_pairs if b != a]
    ctx = _Miter(before, after, span, certify, aig, pi_lits, latch_lits,
                 in_lits=pi_lits, st_lits=latch_lits, pairs=pairs,
                 compared=len(named_pairs),
                 hash_proven=len(named_pairs) - len(pairs))
    ctx.encode_seconds = time.perf_counter() - start
    span.set(compared=ctx.compared, hash_proven=ctx.hash_proven)
    return ctx


def _lit_sig(sigs, mask: int, lit: int) -> int:
    """Packed simulation value of an AIG literal (edge polarity applied)."""
    s = sigs[lit >> 1]
    return (s ^ mask) if lit & 1 else s


def _first_diff_bit(sigs, mask: int,
                    pairs: list[tuple[int, int]]) -> Optional[int]:
    """Index of the first stimulus pattern on which any pair disagrees."""
    for b, a in pairs:
        diff = (_lit_sig(sigs, mask, b) ^ _lit_sig(sigs, mask, a)) & mask
        if diff:
            return (diff & -diff).bit_length() - 1
    return None


def _simcheck(ctx: _Miter, **span_args) -> Optional[Counterexample]:
    """Stage 2: simulate the working miter under the context's stimulus.

    Returns the replay-confirmed counterexample of the first pattern a
    surviving pair disagrees on, or None.  The signatures stay on the
    context for the sweep policy and solver seeding.
    """
    start = time.perf_counter()
    with get_tracer().span("cec.simcheck", patterns=ctx.num_patterns,
                           pairs=len(ctx.pairs), **span_args) as span:
        ctx.sigs = aig_signatures(
            ctx.aig,
            [ctx.words[lit >> 1] for lit in ctx.pi_lits.values()],
            [ctx.words[lit >> 1] for lit in ctx.latch_lits.values()],
            ctx.mask,
        )
        bit = _first_diff_bit(ctx.sigs, ctx.mask, ctx.pairs)
        span.set(refuted=bit is not None)
    ctx.encode_seconds += time.perf_counter() - start
    if bit is None:
        return None
    inputs = {name: (ctx.words[lit >> 1] >> bit) & 1
              for name, lit in ctx.pi_lits.items()}
    state = {name: (ctx.words[lit >> 1] >> bit) & 1
             for name, lit in ctx.latch_lits.items()}
    return _replay(ctx, inputs, state, "simulation")


def _sweep_worthwhile(ctx: _Miter) -> bool:
    """``sweep="auto"`` policy: candidate-merge density of the differing
    cone, measured on the signatures the simcheck already computed."""
    aig, sigs, mask = ctx.aig, ctx.sigs, ctx.mask
    roots = [lit for pair in ctx.pairs for lit in pair]
    cone_ands = [nid for nid in aig.cone(roots) if aig.is_and(nid)]
    if len(cone_ands) < _SWEEP_MIN_ANDS:
        return False
    seen: set[int] = set()
    candidates = 0
    for nid in cone_ands:
        key = min(sigs[nid], sigs[nid] ^ mask)
        if key in seen:
            candidates += 1
        else:
            seen.add(key)
    return candidates >= _SWEEP_MIN_DENSITY * len(cone_ands)


def _sweep(ctx: _Miter, patterns: int, seed: int, solver_factory) -> None:
    """Stage 3: SAT-sweep the miter AIG.

    Internal equivalences the unique table missed collapse under
    incremental SAT; pairs whose cones merge drop out of ``ctx.pairs``.
    The context moves onto the swept graph and its enriched stimulus.
    """
    # Imported lazily: opt.fraig imports sat.cnf/proof/solver, so a
    # module-level import here would be circular.
    from ..opt.fraig import FraigStats, fraig_sweep_map

    tracer = get_tracer()
    start = time.perf_counter()
    stats = FraigStats()
    with tracer.span("cec.sweep", ands=ctx.aig.num_ands,
                     pairs=len(ctx.pairs)) as span:
        # The simcheck's stimulus and signatures are handed to the sweep
        # so its first round does not resimulate.
        swept = fraig_sweep_map(
            ctx.aig, patterns=patterns, seed=seed, stats=stats,
            solver_factory=solver_factory, certify=ctx.certify,
            words=ctx.words, signatures=ctx.sigs)
        mapped = [(swept.map_lit(b), swept.map_lit(a)) for b, a in ctx.pairs]
        ctx.pairs = [(b, a) for b, a in mapped if b != a]
        ctx.sweep_proven = len(mapped) - len(ctx.pairs)
        span.set(sweep_proven=ctx.sweep_proven, remaining=len(ctx.pairs))
    ctx.sweep_seconds = (time.perf_counter() - start
                         - stats.proof_check_seconds)
    ctx.sweep_stats = stats
    ctx.aig = swept.aig
    ctx.in_lits = {name: swept.map_lit(lit)
                   for name, lit in ctx.pi_lits.items()}
    ctx.st_lits = {name: swept.map_lit(lit)
                   for name, lit in ctx.latch_lits.items()}
    ctx.words = swept.words
    ctx.num_patterns = swept.num_patterns
    ctx.span.set(sweep_proven=ctx.sweep_proven)
    if tracer.enabled:
        tracer.metrics.absorb("cec.sweep", {
            "proven": stats.proven,
            "refuted": stats.refuted,
            "pairs_proven": ctx.sweep_proven,
        })


def _encode_pairs(cnf: CNF, aig: AIG, pairs: list[tuple[int, int]],
                  pi_lits: dict[str, int], latch_lits: dict[str, int],
                  structural: bool
                  ) -> tuple[dict[int, int], dict[str, int], dict[str, int],
                             list[int]]:
    """Encode the cones of the differing pairs and assert the miter output.

    Returns ``(var_map, input_vars, state_vars, disagree)`` where
    ``disagree[i]`` is pair ``i``'s disagreement variable.  Leaves outside
    every encoded cone never get a variable: they cannot influence the
    verdict and default to 0 in counterexamples.
    """
    roots = [lit for pair in pairs for lit in pair]
    var_map = encode_aig_cone(cnf, aig, roots, structural=structural)
    disagree = _assert_disagreement(cnf, [
        (aig_lit_sat(var_map, b), aig_lit_sat(var_map, a))
        for b, a in pairs
    ])
    input_vars = {name: var_map[lit >> 1] for name, lit in pi_lits.items()
                  if (lit >> 1) in var_map}
    state_vars = {name: var_map[lit >> 1]
                  for name, lit in latch_lits.items()
                  if (lit >> 1) in var_map}
    return var_map, input_vars, state_vars, disagree


def _seed_solver(solver, var_map: dict[int, int], aig: AIG,
                 sigs, num_patterns: int) -> None:
    """Seed saved phases from simulation majority votes and initial VSIDS
    activity from cone fanout counts, when the engine supports either.

    A variable's seeded phase is the value its AIG node took on the
    majority of the stimulus patterns — near-equivalent root pairs make
    most of the miter agree with simulation on most assignments, so the
    search starts in the neighborhood the packed patterns already
    explored.  Activity is seeded proportional to each node's fanout
    inside the encoded cones (capped at half an initial bump), so
    heavily shared signals are decided early, like the fanout-weighted
    variable orders of circuit-aware SAT solvers.
    """
    mask = (1 << num_patterns) - 1
    seed_phases = getattr(solver, "seed_phases", None)
    if seed_phases is not None:
        seed_phases({
            var: bin(sigs[nid] & mask).count("1") * 2 >= num_patterns
            for nid, var in var_map.items()
        })
    seed_activity = getattr(solver, "seed_activity", None)
    if seed_activity is not None:
        fanout: dict[int, int] = {}
        for nid in var_map:
            if aig.is_and(nid):
                for fanin in aig.fanins(nid):
                    node = fanin >> 1
                    fanout[node] = fanout.get(node, 0) + 1
        top = max(fanout.values(), default=0)
        if top:
            seed_activity({
                var_map[nid]: 0.5 * count / top
                for nid, count in fanout.items() if nid in var_map
            })


def _query_pairs(solver, aig: AIG, pairs: list[tuple[int, int]],
                 disagree: list[int], proof: Optional[ProofLog],
                 tracer) -> tuple[SolverResult, int]:
    """The solve step of :func:`decide`: one assumption query per pair.

    Pairs are asked smallest fanin cone first (ties keep their order).
    Each UNSAT answer proves its pair equal, and ``¬z_i`` joins the
    clause set (logged to ``proof`` first, so the proof stays RUP) for
    every later query to propagate from.  Returns the first satisfiable
    result, or — every pair proven, ``OR(z_i)`` now falsified — the last
    UNSAT one with the empty clause logged; and the number of queries.
    """
    order = sorted(range(len(pairs)), key=lambda i: len(aig.cone(pairs[i])))
    result = SolverResult(False, stats=SolverStats())
    seen = 0
    for queries, i in enumerate(order, 1):
        z = disagree[i]
        result = solver.solve(assumptions=(z,))
        if tracer.enabled:
            tracer.metrics.histogram("cec.pair_conflicts").observe(
                result.stats.conflicts - seen)
        seen = result.stats.conflicts
        if result.satisfiable:
            return result, queries
        if proof is not None:
            proof.add((-z,))
        solver.add_clause((-z,))
    if proof is not None:
        proof.add(())
    return result, len(order)


def decide(aig: AIG, pairs: list[tuple[int, int]],
           input_lits: dict[str, int], latch_lits: dict[str, int], *,
           structural: bool = True, preprocess: bool = True,
           certify: bool = False, proof: Optional[ProofLog] = None,
           solver_factory=Solver, sigs=None,
           num_patterns: int = 0) -> Decision:
    """Stage 4: decide whether any root pair of a miter AIG can differ.

    Encodes the cones of ``pairs`` (``structural`` XOR/MUX/majority
    matching), one disagreement variable ``z_i`` per pair and the clause
    ``OR(z_i)``, then preprocesses the CNF with the named leaf variables
    (``input_lits`` / ``latch_lits``) and every ``z_i`` frozen.

    The solve step proves the pairs one at a time in one incremental
    solver, the per-output scheme of ABC-style CEC (Mishchenko et al.,
    ICCAD 2006): pairs are asked smallest fanin cone first as
    ``solve(assumptions=[z_i])``.  An UNSAT answer proves pair ``i``
    equal; ``¬z_i`` is then added as a clause, so that equality and every
    clause learned on the way help each later query.  The first SAT
    answer stops the loop and its model is read back as named leaf
    values.  Any engine with ``solve(assumptions=)`` and ``add_clause``
    works; saved phases and activities are seeded from ``sigs``, the
    packed ``num_patterns``-wide node signatures, when given and the
    engine supports it.

    Under ``certify`` each ``¬z_i`` is logged as a DRAT lemma before it is
    added and the empty clause closes the proof once every pair is
    proven; on UNSAT the one proof — preprocessing steps, learned clauses
    and pair lemmas — is RUP-checked against the original encoded CNF,
    which holds no ``¬z_i``.  ``proof`` is the log to write into (one is
    created under ``certify``).

    :func:`check_equivalence` calls this on the whole miter; the
    ``jobs > 1`` partition workers call it on their shards.  Every call
    is self-contained and returns a picklable :class:`Decision`.
    """
    tracer = get_tracer()
    start = time.perf_counter()
    cnf = CNF()
    with tracer.span("cec.encode", design=aig.name,
                     pairs=len(pairs)) as span:
        var_map, input_vars, state_vars, disagree = _encode_pairs(
            cnf, aig, pairs, input_lits, latch_lits, structural)
        span.set(cnf_vars=cnf.num_vars, cnf_clauses=len(cnf.clauses))
    encode_seconds = time.perf_counter() - start

    if certify and proof is None:
        proof = ProofLog()
    # The proof steps preprocessing emits precede the solver's, so one log
    # certifies the whole stage against the original CNF.  Leaf variables
    # are frozen for model readback, the z_i for the pair queries.
    pre = None
    solve_clauses = cnf.clauses
    if preprocess and cnf.clauses:
        frozen = {*input_vars.values(), *state_vars.values(), *disagree}
        with tracer.span("cec.preprocess",
                         cnf_clauses=len(cnf.clauses)) as pp_span:
            pre = simplify_cnf(cnf.num_vars, cnf.clauses, frozen=frozen,
                               proof=proof)
            pp_span.set(clauses_out=len(pre.clauses), unsat=pre.unsat)
        solve_clauses = pre.clauses

    start = time.perf_counter()
    if pre is not None and pre.unsat:
        # Preprocessing alone derived the empty clause — the proof
        # already ends in it, so certification proceeds as for any other
        # UNSAT verdict.
        result = SolverResult(False, stats=SolverStats())
        solve_seconds = 0.0
    else:
        with tracer.span("cec.solve", cnf_vars=cnf.num_vars,
                         cnf_clauses=len(solve_clauses)) as solve_span:
            solver = solver_factory(cnf.num_vars, solve_clauses)
            set_proof = getattr(solver, "set_proof", None)
            if proof is not None and set_proof is not None:
                set_proof(proof)
            if sigs is not None and var_map:
                _seed_solver(solver, var_map, aig, sigs, num_patterns)
            attach_solver_progress(solver, tracer)
            result, queries = _query_pairs(solver, aig, pairs, disagree,
                                           proof, tracer)
            solve_span.set(satisfiable=result.satisfiable,
                           conflicts=result.stats.conflicts,
                           queries=queries)
        solve_seconds = time.perf_counter() - start

    decision = Decision(
        result.satisfiable, stats=result.stats, cnf_vars=cnf.num_vars,
        cnf_clauses=len(cnf.clauses), encode_seconds=encode_seconds,
        solve_seconds=solve_seconds,
        preprocessor=pre.stats.to_dict() if pre is not None else None)
    if result.satisfiable:
        # Eliminated variables are re-valued by replaying the
        # preprocessor's reconstruction stack.
        model = pre.reconstruct(result.model) if pre is not None \
            else result.model
        decision.inputs = {name: int(model.get(var, False))
                           for name, var in input_vars.items()}
        decision.state = {name: int(model.get(var, False))
                          for name, var in state_vars.items()}
    elif certify:
        start = time.perf_counter()
        with tracer.span("cec.certify", lemmas=proof.num_added):
            decision.proof_checked = check_drat(cnf, proof).ok
        decision.proof_check_seconds = time.perf_counter() - start
    if proof is not None:
        decision.proof_clauses = proof.num_added
        decision.proof_bytes = proof.size_bytes()
    return decision


def _decide(ctx: _Miter, jobs: int, solver_factory,
            proof: Optional[ProofLog], **options) -> Decision:
    """Run :func:`decide` on the surviving pairs, serially or sharded.

    The parallel path is restricted to the default solver and no
    caller-supplied proof log: a custom engine or a shared on-disk DRAT
    stream cannot cross the process boundary.
    """
    tracer = get_tracer()
    if (jobs > 1 and len(ctx.pairs) > 1 and proof is None
            and solver_factory is Solver):
        # Imported lazily: the partition workers import this module.
        from .partition import solve_pairs_parallel

        words_by_name = None
        if ctx.num_patterns > 0:
            words_by_name = {
                name: ctx.words[lit >> 1]
                for name, lit in (*ctx.pi_lits.items(),
                                  *ctx.latch_lits.items())
            }
        start = time.perf_counter()
        with tracer.span("cec.parallel", jobs=jobs,
                         pairs=len(ctx.pairs)) as span:
            decision = solve_pairs_parallel(
                ctx.aig, ctx.pairs, ctx.in_lits, ctx.st_lits, jobs,
                words_by_name=words_by_name,
                num_patterns=ctx.num_patterns, **options)
            span.set(partitions=decision.partitions,
                     satisfiable=decision.satisfiable)
        wall = time.perf_counter() - start
        ctx.jobs = jobs
    else:
        decision = decide(ctx.aig, ctx.pairs, ctx.in_lits, ctx.st_lits,
                          proof=proof, solver_factory=solver_factory,
                          sigs=ctx.sigs, num_patterns=ctx.num_patterns,
                          **options)
        wall = decision.solve_seconds
    if tracer.enabled:
        tracer.metrics.absorb("cec.solver", decision.stats.to_dict())
        tracer.metrics.histogram("cec.solve_seconds").observe(wall)
        if decision.preprocessor is not None:
            tracer.metrics.absorb("cec.preprocess", decision.preprocessor)
    return decision


def _replay(ctx: _Miter, inputs: dict[str, int], state: dict[str, int],
            source: str) -> Counterexample:
    """Stage 5: confirm a candidate assignment by simulating both netlists.

    ``source`` names the stage that produced it; an assignment the
    netlists agree on is a bug in that stage and raises :class:`CECError`.
    """
    with get_tracer().span("cec.replay"):
        diffs = replay_counterexample(ctx.before, ctx.after, inputs, state)
    if not diffs:
        raise CECError(_REPLAY_ERRORS[source])
    return Counterexample(inputs=inputs, state=state, diff=diffs)


def _result(ctx: _Miter, decision: Optional[Decision] = None,
            counterexample: Optional[Counterexample] = None
            ) -> EquivalenceResult:
    """Build the verdict: equivalent unless a counterexample was found.

    A counterexample without a decision came from the simulation check.
    The sweep's proof counters add to the decide stage's on every verdict.
    """
    equivalent = counterexample is None
    d = decision if decision is not None else Decision(False)
    sweep = ctx.sweep_stats
    proof_checked = None
    if ctx.certify and equivalent and (decision is not None
                                       or sweep is not None):
        proof_checked = (
            (decision is None or decision.proof_checked is True)
            and (sweep is None or sweep.proofs_failed == 0))
    refuted_by_simulation = not equivalent and decision is None
    ctx.span.set(equivalent=equivalent)
    if refuted_by_simulation:
        ctx.span.set(refuted_by="simulation")
    if decision is not None:
        ctx.span.set(cnf_clauses=d.cnf_clauses)
    return EquivalenceResult(
        equivalent, counterexample=counterexample, solver_stats=d.stats,
        compared=ctx.compared,
        encode_seconds=ctx.encode_seconds + d.encode_seconds,
        solve_seconds=d.solve_seconds,
        cnf_vars=d.cnf_vars, cnf_clauses=d.cnf_clauses,
        hash_proven=ctx.hash_proven, proof_checked=proof_checked,
        proof_clauses=d.proof_clauses + (sweep.proof_clauses if sweep else 0),
        proof_bytes=d.proof_bytes + (sweep.proof_bytes if sweep else 0),
        proof_check_seconds=(d.proof_check_seconds
                             + (sweep.proof_check_seconds if sweep else 0.0)),
        sweep_proven=ctx.sweep_proven, sweep_seconds=ctx.sweep_seconds,
        refuted_by_simulation=refuted_by_simulation,
        preprocessor=d.preprocessor, jobs=ctx.jobs,
        partitions=d.partitions)


def replay_counterexample(before: Netlist, after: Netlist,
                          inputs: dict[str, int], state: dict[str, int]
                          ) -> list[tuple[str, str, int, int]]:
    """Simulate both netlists under a candidate distinguishing assignment.

    Replay goes through the compiled engine
    (:func:`repro.netlist.sim.simulate_compiled`), whose per-netlist
    compilation is cached — repeated refutations of the same pair replay at
    straight-line speed.  Returns the observed
    ``(kind, name, before_value, after_value)`` disagreements over primary
    outputs and matched next-state functions (empty when the netlists
    actually agree on this assignment).
    """
    diffs: list[tuple[str, str, int, int]] = []
    results = []
    for netlist in (before, after):
        regs = netlist.register_map()
        net_state = {gid: state.get(name, 0) for name, gid in regs.items()}
        outputs, next_state = simulate_compiled(netlist, inputs, net_state)
        named_next = {
            name: next_state[gid] for name, gid in regs.items()
        }
        results.append((outputs, named_next))
    (b_outputs, b_next), (a_outputs, a_next) = results
    for name in sorted(b_outputs):
        if b_outputs[name] != a_outputs.get(name):
            diffs.append(("output", name, b_outputs[name],
                          a_outputs.get(name, 0)))
    for name in sorted(set(b_next) & set(a_next)):
        if b_next[name] != a_next[name]:
            diffs.append(("next_state", name, b_next[name], a_next[name]))
    return diffs


def check_equivalence(before: Netlist, after: Netlist, *,
                      solver_factory=Solver,
                      certify: bool = False,
                      proof: Optional[ProofLog] = None,
                      preprocess: bool = True,
                      sweep: Union[bool, str] = "auto",
                      structural: bool = True,
                      sim_patterns: int = 64,
                      seed: int = 2022,
                      jobs: int = 1) -> EquivalenceResult:
    """Prove or refute the equivalence of two netlists.

    Equivalence means: identical values on every primary output and on the
    data pin of every name-matched flip-flop, for all input and register
    assignments (registers present in only one netlist are free).  When the
    miter is satisfiable the assignment is replayed through the simulator
    and returned as a confirmed :class:`Counterexample`.  The stages are
    described in the module docstring.

    Pipeline knobs:

    * ``preprocess`` — run the SatELite-style CNF preprocessor
      (subsumption, self-subsuming resolution, bounded variable
      elimination) on the miter CNF before solving; shared input/state
      variables are frozen so counterexamples reconstruct.  The result's
      ``preprocessor`` dict carries its counters.
    * ``sweep`` — SAT-sweep the shared miter AIG before encoding: True,
      False, or ``"auto"`` (default: sweep only differing cones that are
      both large and dense with simulation-candidate merges, see
      :func:`_sweep_worthwhile`).  Sweep-proven root pairs are counted
      in ``sweep_proven`` and skip the top-level solve.
    * ``structural`` — XOR/MUX/majority pattern matching in the cone
      encoding (see :func:`~repro.netlist.sat.cnf.encode_aig_cone`).
    * ``sim_patterns`` / ``seed`` — width and RNG seed of the packed
      random stimulus used by the simulation checks, the sweep, and
      phase seeding.  ``sim_patterns=0`` disables the simulation check
      and everything fed by its signatures (auto-sweeping, phase and
      activity seeding) — the benchmark's legacy configuration.
    * ``jobs`` — with ``jobs > 1`` (default solver, no caller-supplied
      ``proof``) the root pairs surviving the sweep are partitioned into
      fanin-cone-balanced groups and :func:`decide` runs on each in up
      to ``jobs`` worker processes (:mod:`~repro.netlist.sat.partition`).
      The verdict is identical to the serial path: the first refuting
      worker cancels its siblings, all-UNSAT shards merge their solver
      statistics, and under ``certify=True`` every worker RUP-checks its
      own shard's proof (``proof_checked`` is True only if all of them
      pass).  The result's ``jobs``/``partitions`` fields report the
      fan-out.

    ``solver_factory`` swaps the SAT engine — it is called as
    ``factory(num_vars, clauses)`` with the clause iterable streamed
    straight from the (possibly preprocessed) miter CNF.  The default is
    the production flat-array CDCL solver; ``scripts/bench.py`` passes
    :class:`~repro.netlist.sat.reference.ReferenceSolver` to measure the
    old-vs-new split.  Phase/activity seeding is applied only when the
    engine exposes ``seed_phases`` / ``seed_activity``.

    ``certify=True`` turns on DRAT proof logging and, on an UNSAT
    verdict, replays the proof through the independent RUP checker
    (:func:`~repro.netlist.sat.proof.check_drat`) **against the original
    pre-preprocessing CNF** — preprocessing steps are part of the same
    proof and stay inside the RUP fragment by construction.  Sweep
    merges are certified per-merge inside the sweep; a rejected sweep
    proof makes ``proof_checked`` False even when the top-level proof
    checks.  The result's ``proof_checked`` then certifies the verdict
    (False means some proof was rejected — callers such as the CLI and
    bench treat that as a hard failure).  ``proof`` supplies the
    :class:`ProofLog` to write into — pass one with a stream to keep the
    DRAT text on disk (the CLI's ``--solve-log``); with ``proof`` alone
    the log is recorded but not checked.
    """
    with get_tracer().span("cec", before=before.name,
                           after=after.name) as span:
        ctx = _lower(before, after, span, certify)
        if not ctx.pairs:
            # Every root pair hash-merged to the same literal.
            return _result(ctx)

        # ``sim_patterns=0`` skips the check and the signatures that
        # auto-sweep and phase seeding feed on.
        if sim_patterns > 0:
            rng = random.Random(seed)
            ctx.words = {nid: rng.getrandbits(sim_patterns)
                         for nid in (*ctx.aig.inputs, *ctx.aig.latches)}
            ctx.num_patterns = sim_patterns
            cex = _simcheck(ctx)
            if cex is not None:
                return _result(ctx, counterexample=cex)

        do_sweep = sweep if isinstance(sweep, bool) else (
            ctx.sigs is not None and _sweep_worthwhile(ctx))
        if do_sweep:
            _sweep(ctx, sim_patterns if sim_patterns > 0 else 64, seed,
                   solver_factory)
            if not ctx.pairs:
                return _result(ctx)
            # The sweep's refuted candidates appended distinguishing
            # patterns to the stimulus.
            cex = _simcheck(ctx, post_sweep=True)
            if cex is not None:
                return _result(ctx, counterexample=cex)

        decision = _decide(ctx, jobs, solver_factory, proof,
                           structural=structural, preprocess=preprocess,
                           certify=certify)
        if not decision.satisfiable:
            return _result(ctx, decision)
        # Inputs outside every encoded cone carry no CNF variable; they
        # replay as 0.
        inputs = {name: 0 for name in before.input_names()}
        inputs.update(decision.inputs or {})
        cex = _replay(ctx, inputs, dict(decision.state or {}), "solver")
        return _result(ctx, decision, cex)
