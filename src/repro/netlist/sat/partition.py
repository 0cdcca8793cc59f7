"""Per-output-pair partitioning of miters into parallel SAT sub-jobs.

A multi-output miter is embarrassingly parallel: every root pair (output
or next-state function) can be decided over its own fanin cone.  This
module shards proof work across a :mod:`multiprocessing` pool for
:func:`~repro.netlist.sat.cec.check_equivalence` (``jobs=N``),
:func:`~repro.netlist.opt.fraig.fraig_sweep` (``jobs=N``) and the
:mod:`repro.server` daemon:

* :func:`extract_cone` copies the combinational cone of a set of literals
  into a fresh, self-contained (and therefore cheaply picklable) AIG —
  the shard a worker process receives;
* :func:`partition_pairs` splits root pairs (or FRAIG merge candidates)
  into size-balanced groups (greedy largest-cone-first bin packing, so
  one huge output does not serialize the batch behind it);
* :func:`solve_partition` is the CEC worker entry point: it runs the
  serial path's own decide stage (:func:`~repro.netlist.sat.cec.decide`)
  on one shard — encode, preprocess, then one incremental solver that
  proves the shard's pairs one at a time, smallest cone first, each
  proven pair asserted equal for the next — and certifies *inside the
  worker* against the shard's own encoded CNF;
* :func:`solve_pairs_parallel` drives the pool: payloads are dispatched
  with ``imap_unordered`` and **the first refuting worker cancels its
  siblings** (a counterexample for any pair refutes the whole miter, so
  finishing the other shards would be wasted work).  All-UNSAT shards
  merge into one :class:`~repro.netlist.sat.cec.Decision` with
  accumulated solver statistics and summed proof counters, and each
  worker's metrics registry (``preprocess.*`` counters, the
  ``cec.pair_conflicts`` histogram, ...) merges into the parent's;
* :func:`sweep_partition` / :func:`solve_sweep_parallel` answer FRAIG
  merge candidates the same way, with no early cancellation.

Verdict parity with the serial path is a hard guarantee: partitioning
changes *who* solves each pair, never *what* is asked, and a SAT model
is still replayed through the simulator by the caller before it is
believed.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ...obs import MetricsRegistry, Tracer, get_tracer, use_tracer
from ..aig import AIG, _AND, _LATCH, _PI
from ..sim import aig_signatures
from .cec import Decision, decide
from .solver import SolverStats


def extract_cone(aig: AIG, roots: Sequence[int]
                 ) -> tuple[AIG, dict[int, int]]:
    """Copy the combinational cone of ``roots`` into a fresh AIG.

    Primary inputs and latches inside the cone become leaves of the new
    graph under their original names (latch next-state functions are not
    carried — the shard is a combinational proof obligation).  Returns
    ``(sub, lit_of)`` where ``lit_of`` maps original node ids to the
    positive literal standing for them in ``sub``; translate a literal
    with ``lit_of[lit >> 1] ^ (lit & 1)``.  Node ids ascend fanins-first
    in the source graph, so iterating the cone in id order is topological.
    """
    sub = AIG(name=aig.name)
    lit_of: dict[int, int] = {0: 0}
    for nid in sorted(aig.cone(roots)):
        if nid == 0:
            continue
        kind = aig.kind(nid)
        if kind == _PI:
            lit_of[nid] = sub.add_input(aig.node_name(nid) or f"pi_{nid}")
        elif kind == _LATCH:
            lit_of[nid] = sub.add_latch(aig.node_name(nid) or
                                        f"latch_{nid}")
        elif kind == _AND:
            f0, f1 = aig.fanins(nid)
            lit_of[nid] = sub.aig_and(lit_of[f0 >> 1] ^ (f0 & 1),
                                      lit_of[f1 >> 1] ^ (f1 & 1))
    return sub, lit_of


def _translate(lit_of: dict[int, int], lit: int) -> int:
    """Map a literal of the source graph into an :func:`extract_cone`
    shard."""
    return lit_of[lit >> 1] ^ (lit & 1)


def partition_pairs(aig: AIG, pairs: Sequence[tuple[int, int]],
                    jobs: int) -> list[list[int]]:
    """Split literal pairs into at most ``jobs`` size-balanced groups.

    Returns groups of indices into ``pairs``.  Greedy bin packing by
    fanin-cone size, largest first (ties in input order) into the
    currently lightest group — cones shared between pairs in the *same*
    group are encoded once (the worker builds one shard for the whole
    group), while sharing across groups is re-encoded per worker, the
    price of independence.
    """
    jobs = max(1, min(jobs, len(pairs)))
    if jobs == 1:
        return [list(range(len(pairs)))]
    sizes = [len(aig.cone(pair)) for pair in pairs]
    groups: list[list[int]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    for i in sorted(range(len(pairs)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        groups[k].append(i)
        loads[k] += sizes[i]
    return [group for group in groups if group]


def make_payload(aig: AIG, pairs: Sequence[tuple[int, int]],
                 pi_lits: dict[str, int], latch_lits: dict[str, int],
                 options: dict, words_by_name: Optional[dict[str, int]],
                 num_patterns: int, trace: bool) -> tuple:
    """Build the picklable shard a worker receives for one pair group.

    The shard AIG contains only the group's cones; leaf stimulus words
    (for solver phase/activity seeding) travel keyed by leaf *name* so
    they survive the node renumbering.  ``options`` are
    :func:`~repro.netlist.sat.cec.decide` keywords.
    """
    sub, lit_of = extract_cone(aig, [lit for pair in pairs for lit in pair])
    sub_pairs = [(_translate(lit_of, b), _translate(lit_of, a))
                 for b, a in pairs]
    sub_inputs = {name: _translate(lit_of, lit)
                  for name, lit in pi_lits.items() if (lit >> 1) in lit_of}
    sub_latches = {name: _translate(lit_of, lit)
                   for name, lit in latch_lits.items()
                   if (lit >> 1) in lit_of}
    words = None
    if words_by_name is not None and num_patterns > 0:
        words = {name: words_by_name.get(name, 0)
                 for name in (*sub_inputs, *sub_latches)}
    return (sub, sub_pairs, sub_inputs, sub_latches, options, words,
            num_patterns, trace)


def solve_partition(payload: tuple
                    ) -> tuple[Decision, list, Optional[MetricsRegistry]]:
    """Worker entry point: decide one shard of the miter.

    Module-level (and all-picklable in and out) so it crosses the
    :mod:`multiprocessing` boundary.  Rebuilds the shard's simulation
    signatures from the named stimulus words and runs
    :func:`~repro.netlist.sat.cec.decide` on it.  Returns the decision
    and, when tracing, the worker's recorded spans and its whole metrics
    registry (else ``[]`` and None).
    """
    (sub, pairs, input_lits, latch_lits, options, words, num_patterns,
     trace) = payload
    tracer = Tracer() if trace else get_tracer()
    with use_tracer(tracer):
        with tracer.span("cec.partition", pairs=len(pairs),
                         ands=sub.num_ands) as span:
            sigs = None
            if words is not None:
                sigs = aig_signatures(
                    sub,
                    [words.get(sub.node_name(nid) or f"pi_{nid}", 0)
                     for nid in sub.inputs],
                    [words.get(sub.node_name(nid) or f"latch_{nid}", 0)
                     for nid in sub.latches],
                    (1 << num_patterns) - 1,
                )
            decision = decide(sub, pairs, input_lits, latch_lits,
                              sigs=sigs, num_patterns=num_patterns,
                              **options)
            span.set(satisfiable=decision.satisfiable,
                     conflicts=decision.stats.conflicts)
    if not trace:
        return decision, [], None
    return decision, tracer.records, tracer.metrics


def _merge(decisions: list[Decision], partitions: int) -> Decision:
    """One verdict from the completed shards: SAT if any shard is,
    encode/solve times on the critical path (max over workers), every
    other counter summed."""
    merged = Decision(False, partitions=partitions)
    for d in decisions:
        merged.stats.accumulate(d.stats)
        merged.cnf_vars += d.cnf_vars
        merged.cnf_clauses += d.cnf_clauses
        merged.encode_seconds = max(merged.encode_seconds, d.encode_seconds)
        merged.solve_seconds = max(merged.solve_seconds, d.solve_seconds)
        merged.proof_clauses += d.proof_clauses
        merged.proof_bytes += d.proof_bytes
        merged.proof_check_seconds += d.proof_check_seconds
        if d.preprocessor is not None:
            merged.preprocessor = merged.preprocessor or {}
            for key, value in d.preprocessor.items():
                if isinstance(value, (int, float)):
                    merged.preprocessor[key] = \
                        merged.preprocessor.get(key, 0) + value
        if d.satisfiable:
            merged.satisfiable = True
            merged.inputs, merged.state = d.inputs, d.state
    checks = [d.proof_checked for d in decisions]
    merged.proof_checked = None if None in checks else all(checks)
    return merged


def solve_pairs_parallel(aig: AIG, pairs: Sequence[tuple[int, int]],
                         pi_lits: dict[str, int],
                         latch_lits: dict[str, int],
                         jobs: int, *,
                         words_by_name: Optional[dict[str, int]] = None,
                         num_patterns: int = 0, **options) -> Decision:
    """Partition ``pairs``, decide the shards on a process pool, merge.

    ``options`` are :func:`~repro.netlist.sat.cec.decide` keywords
    (``structural``, ``preprocess``, ``certify``).  The pool is sized
    ``min(jobs, shards)``; results stream back through
    ``imap_unordered`` and the first satisfiable shard terminates the
    pool (its siblings' UNSAT answers cannot change the verdict).  With a
    single shard the solve runs in-process — no pool, no pickling.
    Recorded worker spans are stitched into the ambient tracer under
    synthetic worker thread ids, and worker metrics merge into its
    registry.
    """
    import multiprocessing

    tracer = get_tracer()
    groups = partition_pairs(aig, pairs, jobs)
    payloads = [
        make_payload(aig, [pairs[i] for i in group], pi_lits, latch_lits,
                     options, words_by_name, num_patterns,
                     bool(tracer.enabled))
        for group in groups
    ]
    replies: list[tuple[Decision, list, Optional[MetricsRegistry]]] = []
    if len(payloads) == 1:
        replies.append(solve_partition(payloads[0]))
    else:
        with multiprocessing.Pool(processes=len(payloads)) as pool:
            for reply in pool.imap_unordered(solve_partition, payloads):
                replies.append(reply)
                if reply[0].satisfiable:
                    # First refuting worker cancels its siblings.
                    pool.terminate()
                    break
    adopt = getattr(tracer, "adopt", None)
    if tracer.enabled and adopt is not None:
        for worker, (_, spans, metrics) in enumerate(replies):
            adopt(spans, tid=10_000_000 + worker)
            tracer.metrics.merge(metrics)
    return _merge([decision for decision, _, _ in replies], len(groups))


def sweep_partition(payload: tuple) -> dict:
    """Worker entry point for parallel FRAIG candidate proofs.

    Receives a self-contained shard AIG plus a list of
    ``(built_lit, cand_lit, idx)`` merge candidates and answers each with
    one assumption-gated query on a single incremental solver — the same
    shared-cone, shared-learned-clauses discipline as the serial sweep,
    just restricted to this shard's candidates.  Refuted candidates
    return their distinguishing leaf assignment keyed by leaf *name* so
    the parent can extend the stimulus of the full graph.
    """
    from .cnf import CNF, aig_lit_sat, encode_aig_cone
    from .proof import ProofLog, check_drat
    from .solver import Solver

    sub, cands, certify, trace = payload
    tracer = Tracer() if trace else get_tracer()
    results: list[dict] = []
    proofs_checked = proofs_failed = 0
    proof_check_seconds = 0.0
    with use_tracer(tracer):
        with tracer.span("fraig.partition", candidates=len(cands),
                         ands=sub.num_ands):
            cnf = CNF()
            solver = Solver(0, ())
            proof = None
            if certify:
                proof = ProofLog()
                solver.set_proof(proof)
            var_map: dict[int, int] = {}
            leaves = list(sub.inputs) + list(sub.latches)
            for built, cand, idx in cands:
                before_clauses = len(cnf.clauses)
                encode_aig_cone(cnf, sub, (built, cand), var_map=var_map)
                a = aig_lit_sat(var_map, built)
                b = aig_lit_sat(var_map, cand)
                gate_var = cnf.new_var()
                cnf.add_clause(-gate_var, a, b)
                cnf.add_clause(-gate_var, -a, -b)
                solver.ensure_vars(cnf.num_vars)
                solver.add_clauses(cnf.clauses[before_clauses:])
                result = solver.solve(assumptions=(gate_var,))
                if not result.satisfiable:
                    if proof is not None:
                        check_start = time.perf_counter()
                        verdict = check_drat(cnf, proof,
                                             assumptions=(gate_var,))
                        proof_check_seconds += \
                            time.perf_counter() - check_start
                        if verdict.ok:
                            proofs_checked += 1
                        else:
                            proofs_failed += 1
                    results.append({"idx": idx, "proven": True})
                else:
                    model = result.model
                    assignment = {}
                    for nid in leaves:
                        var = var_map.get(nid)
                        bit = int(model.get(var, False)) if var else 0
                        assignment[sub.node_name(nid) or f"pi_{nid}"] = bit
                    results.append({"idx": idx, "proven": False,
                                    "model": assignment})
    return {
        "results": results,
        "stats": solver.stats,
        "proofs_checked": proofs_checked,
        "proofs_failed": proofs_failed,
        "proof_clauses": proof.num_added if proof is not None else 0,
        "proof_bytes": proof.size_bytes() if proof is not None else 0,
        "proof_check_seconds": proof_check_seconds,
        "spans": tracer.records if trace else [],
    }


def solve_sweep_parallel(aig: AIG, cands: Sequence[tuple[int, int]],
                         jobs: int, certify: bool = False) -> dict:
    """Prove/refute FRAIG merge candidates on a process pool.

    ``cands`` are ``(built_lit, cand_lit)`` pairs over ``aig`` (the
    round's rebuilt graph).  Every candidate is answered — there is no
    early cancellation here, the sweep needs all verdicts — and the
    merged reply carries ``verdicts`` (a list aligned with ``cands``:
    ``{"proven": bool, "model": {leaf: bit} | None}``), accumulated
    solver statistics, and the certification counters summed across
    workers.
    """
    import multiprocessing

    tracer = get_tracer()
    trace = bool(tracer.enabled)
    payloads = []
    for group in partition_pairs(aig, cands, jobs):
        group.sort()
        sub, lit_of = extract_cone(aig, [lit for i in group
                                         for lit in cands[i]])
        shard = [(_translate(lit_of, cands[i][0]),
                  _translate(lit_of, cands[i][1]), i) for i in group]
        payloads.append((sub, shard, certify, trace))
    if len(payloads) == 1:
        replies = [sweep_partition(payloads[0])]
    else:
        with multiprocessing.Pool(processes=len(payloads)) as pool:
            replies = list(pool.imap_unordered(sweep_partition, payloads))
    verdicts: list[Optional[dict]] = [None] * len(cands)
    merged = {
        "verdicts": verdicts,
        "stats": SolverStats(),
        "proofs_checked": 0,
        "proofs_failed": 0,
        "proof_clauses": 0,
        "proof_bytes": 0,
        "proof_check_seconds": 0.0,
        "partitions": len(payloads),
    }
    for worker, reply in enumerate(replies):
        merged["stats"].accumulate(reply["stats"])
        merged["proofs_checked"] += reply["proofs_checked"]
        merged["proofs_failed"] += reply["proofs_failed"]
        merged["proof_clauses"] += reply["proof_clauses"]
        merged["proof_bytes"] += reply["proof_bytes"]
        merged["proof_check_seconds"] += reply["proof_check_seconds"]
        for res in reply["results"]:
            verdicts[res["idx"]] = res
        if trace:
            adopt = getattr(tracer, "adopt", None)
            if adopt is not None:
                adopt(reply["spans"], tid=20_000_000 + worker)
    return merged
