"""Tests for the SAT subsystem (repro.netlist.sat): CNF encoding, the CDCL
solver, and miter-based equivalence checking with counterexample replay."""

import functools
import itertools
import random

import pytest

from repro.netlist import (
    AIG,
    GateType,
    Interpreter,
    InterpreterError,
    Netlist,
    elaborate,
    from_netlist,
    simulate,
)
from repro.netlist.aig import aig_not, insert_netlist
from repro.netlist.opt import optimize
from repro.netlist.sat import (
    CECError,
    CNF,
    ReferenceSolver,
    Solver,
    aig_lit_sat,
    check_equivalence,
    encode_aig_cone,
    replay_counterexample,
    solve,
)

from repro.obs import Tracer, use_tracer

from test_cli import MULT_A, MULT_B, MULT_BAD
from test_elaborate import ALU

# ---------------------------------------------------------------------------
# CNF / Tseitin encoding
# ---------------------------------------------------------------------------

_GATE_CASES = [
    (GateType.BUF, 1), (GateType.NOT, 1),
    (GateType.AND, 2), (GateType.AND, 3),
    (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.OR, 2), (GateType.OR, 3),
    (GateType.NOR, 2), (GateType.NOR, 3),
    (GateType.XOR, 2), (GateType.XOR, 3),
    (GateType.XNOR, 2), (GateType.XNOR, 3),
    (GateType.MUX, 3),
]


@pytest.mark.parametrize("gtype,arity", _GATE_CASES,
                         ids=[f"{g.value}{n}" for g, n in _GATE_CASES])
def test_gate_encoding_matches_simulator(gtype, arity):
    """Exhaustive truth-table check: one gate, lowered to the AIG and
    encoded by ``encode_aig_cone`` (structural matching off and on),
    admits exactly the assignments the bit-level simulator produces."""
    netlist = Netlist("g")
    inputs = [netlist.add_input(f"i{k}") for k in range(arity)]
    out = netlist.add_gate(gtype, inputs)
    netlist.add_output("y", out)
    aig = from_netlist(netlist)
    root = aig.output_lit("y")

    for structural in (False, True):
        cnf = CNF()
        var_map = encode_aig_cone(cnf, aig, [root], structural=structural)
        y = aig_lit_sat(var_map, root)
        for assignment in itertools.product((0, 1), repeat=arity):
            expected, _ = simulate(
                netlist, {f"i{k}": v for k, v in enumerate(assignment)})
            units = []
            for k, value in enumerate(assignment):
                lit = aig_lit_sat(var_map, aig.input_lit(f"i{k}"))
                units.append((lit if value else -lit,))
            # Forcing the correct output value must be satisfiable...
            ok = solve(cnf.num_vars,
                       cnf.clauses + units + [(y if expected["y"] else -y,)])
            assert ok.satisfiable, (structural, assignment)
            # ...and forcing the wrong one must not.
            bad = solve(cnf.num_vars,
                        cnf.clauses + units + [(-y if expected["y"] else y,)])
            assert not bad.satisfiable, (structural, assignment)


def test_cnf_rejects_unknown_literals():
    cnf = CNF()
    cnf.new_var()
    with pytest.raises(ValueError):
        cnf.add_clause(2)
    with pytest.raises(ValueError):
        cnf.add_clause(0)


# ---------------------------------------------------------------------------
# CDCL solver
# ---------------------------------------------------------------------------


def test_solver_trivial_cases():
    assert solve(0, []).satisfiable
    assert not solve(0, [()]).satisfiable  # empty clause
    assert solve(1, [(1,)]).model == {1: True}
    assert not solve(1, [(1,), (-1,)]).satisfiable
    assert solve(2, [(1, -1)]).satisfiable  # tautology dropped


def test_solver_implication_chain():
    clauses = [(1,)] + [(-i, i + 1) for i in range(1, 50)]
    result = solve(50, clauses)
    assert result.satisfiable
    assert all(result.model[v] for v in range(1, 51))


def _pigeonhole(pigeons, holes):
    def var(p, h):
        return p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes))
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return pigeons * holes, clauses


def test_solver_pigeonhole_unsat():
    """PHP forces real conflict analysis, learning and backjumping."""
    for pigeons in (3, 4, 5):
        num_vars, clauses = _pigeonhole(pigeons, pigeons - 1)
        result = solve(num_vars, clauses)
        assert not result.satisfiable
        assert result.stats.conflicts > 0
        assert result.stats.learned_clauses > 0


def test_solver_pigeonhole_sat_when_holes_suffice():
    num_vars, clauses = _pigeonhole(4, 4)
    result = solve(num_vars, clauses)
    assert result.satisfiable


def _eval_clauses(clauses, model):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def test_solver_randomized_against_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        num_vars = rng.randint(4, 9)
        clauses = [
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)
            )
            for _ in range(rng.randint(5, 4 * num_vars))
        ]
        result = solve(num_vars, clauses)
        brute = any(
            _eval_clauses(clauses,
                          dict(enumerate(bits, start=1)))
            for bits in itertools.product((False, True), repeat=num_vars)
        )
        assert result.satisfiable == brute
        if result.satisfiable:
            assert _eval_clauses(clauses, result.model)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

COUNTER = """
module counter #(parameter W = 4) (
  input clk, input rst, input en,
  output reg [W-1:0] q, output wrap
);
  assign wrap = q == {W{1'b1}};
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (en) q <= q + 1;
  end
endmodule
"""


def test_identical_netlists_are_equivalent():
    a = elaborate(COUNTER, top="counter")
    b = elaborate(COUNTER, top="counter")
    verdict = check_equivalence(a, b)
    assert verdict.equivalent
    assert verdict.counterexample is None
    assert verdict.compared == a.num_outputs + a.num_registers


def test_inequivalent_combinational_netlists_refuted():
    before = elaborate(
        "module m(input a, input b, output y); assign y = a & b; endmodule")
    after = elaborate(
        "module m(input a, input b, output y); assign y = a | b; endmodule")
    verdict = check_equivalence(before, after)
    assert not verdict.equivalent
    cex = verdict.counterexample
    assert cex is not None and cex.diff
    kind, name, b_val, a_val = cex.diff[0]
    assert (kind, name) == ("output", "y")
    assert b_val != a_val
    # The counterexample must actually distinguish: exactly one input set.
    assert sorted(cex.inputs) == ["a", "b"]
    assert sum(cex.inputs.values()) == 1


def test_corrupted_next_state_function_refuted():
    before = elaborate(COUNTER, top="counter")
    after = elaborate(COUNTER, top="counter")
    regs = after.register_map()
    name, gid = sorted(regs.items())[0]
    data = after.gates[gid].fanins[0]
    after.set_fanins(gid, (after.make_not(data),))
    verdict = check_equivalence(before, after)
    assert not verdict.equivalent
    assert any(kind == "next_state" for kind, *_ in
               verdict.counterexample.diff)


def test_interface_mismatch_raises():
    a = elaborate("module m(input x, output y); assign y = x; endmodule")
    b = elaborate("module m(input z, output y); assign y = z; endmodule")
    with pytest.raises(CECError, match="primary inputs differ"):
        check_equivalence(a, b)
    c = elaborate("module m(input x, output w); assign w = x; endmodule")
    with pytest.raises(CECError, match="primary outputs differ"):
        check_equivalence(a, c)


def test_swept_dead_register_still_equivalent():
    source = """
    module m(input clk, input d, output y);
      reg live, dead;
      always @(posedge clk) begin
        live <= d;
        dead <= ~d;
      end
      assign y = live;
    endmodule
    """
    before = elaborate(source, top="m")
    after = optimize(before).netlist
    assert after.num_registers < before.num_registers
    assert check_equivalence(before, after).equivalent


def test_counterexample_replays_on_interpreter_oracle():
    """A refutation can be replayed word-level on the vector interpreter."""
    before = elaborate(COUNTER, top="counter")
    broken = optimize(before).netlist
    name, net = broken.outputs[0]
    assert name == "q[0]"
    broken.outputs[0] = (name, broken.make_not(net))
    verdict = check_equivalence(before, broken)
    assert not verdict.equivalent
    cex = verdict.counterexample

    interp = Interpreter(COUNTER, top="counter")
    interp.load_state(cex.packed_state())
    outputs = interp.step(cex.packed_inputs())
    # The interpreter (ground truth) agrees with the original netlist on
    # every differing output bit, not with the broken one.
    for kind, bit_name, before_val, _ in cex.diff:
        if kind != "output":
            continue
        base, _, index = bit_name.partition("[")
        index = int(index.rstrip("]")) if index else 0
        assert (outputs[base] >> index) & 1 == before_val


def test_interpreter_state_injection_validates():
    interp = Interpreter(COUNTER, top="counter")
    with pytest.raises(InterpreterError, match="does not name a register"):
        interp.load_state({"counter.bogus": 1})
    with pytest.raises(InterpreterError, match="does not fit"):
        interp.load_state({"counter.q": 16})
    interp.load_state({"counter.q": 9})
    assert interp.flat_state() == {"counter.q": 9}
    assert interp.step({"clk": 0, "rst": 0, "en": 1}) == {"q": 9, "wrap": 0}
    assert interp.flat_state() == {"counter.q": 10}


def _mult_pair():
    return elaborate(MULT_A, top="mult"), elaborate(MULT_B, top="mult")


def test_solver_stats_surface_through_equivalence_result():
    # The re-associated multiplier pair neither hash-merges nor falls to
    # simulation: the solver has to search (asserted, so the test cannot
    # pass vacuously).
    verdict = check_equivalence(*_mult_pair())
    assert verdict.equivalent
    assert verdict.solver_stats.conflicts > 0
    stats = verdict.solver_stats.to_dict()
    assert stats["propagations"] > 0
    assert verdict.encode_seconds > 0
    assert verdict.solve_seconds > 0
    assert verdict.cnf_clauses > 0
    # Hash-proven pairs never reach the solver.
    assert 0 <= verdict.hash_proven < verdict.compared


def test_miter_of_gate_free_design():
    src = "module w(input [3:0] a, output [3:0] y); assign y = a; endmodule"
    a = elaborate(src)
    b = elaborate(src)
    assert check_equivalence(a, b).equivalent


# ---------------------------------------------------------------------------
# AIG-native encoding and miter
# ---------------------------------------------------------------------------


def _and_xor_netlist(swap=False):
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    ab = netlist.make_and(b, a) if swap else netlist.make_and(a, b)
    netlist.add_output("y", netlist.make_xor(ab, c))
    return netlist


def test_encode_aig_cone_three_clauses_per_node():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    root = aig.aig_and(aig.aig_and(a, b), c)
    cnf = CNF()
    var_map = encode_aig_cone(cnf, aig, [root])
    # 3 leaf vars + 2 AND nodes at 3 clauses each.
    assert cnf.num_vars == 5
    assert len(cnf.clauses) == 6
    # Complemented edges are pure literal negation: no extra clauses.
    assert aig_lit_sat(var_map, root ^ 1) == -aig_lit_sat(var_map, root)


def test_encode_aig_cone_var_map_reuse():
    aig = AIG()
    a = aig.add_input("a")
    b = aig.add_input("b")
    shared = aig.aig_and(a, b)
    other = aig.aig_and(shared, aig_not(a))
    cnf = CNF()
    var_map = encode_aig_cone(cnf, aig, [shared])
    clauses_first = len(cnf.clauses)
    encode_aig_cone(cnf, aig, [other], var_map=var_map)
    # Only the new node's three clauses were appended.
    assert len(cnf.clauses) == clauses_first + 3


def test_aig_miter_hash_proves_commuted_operands():
    before = _and_xor_netlist(swap=False)
    after = _and_xor_netlist(swap=True)
    verdict = check_equivalence(before, after)
    assert verdict.equivalent
    assert verdict.hash_proven == verdict.compared == 1
    assert verdict.cnf_clauses == 0
    assert verdict.solve_seconds == 0.0


def test_aig_and_gate_encodings_agree_on_refutation():
    """An AIG-miter refutation, from the simulation check or from the
    solver, must be a real disagreement of the gate-level netlists: the
    per-gate simulator reproduces every reported diff."""
    good = elaborate(ALU, top="alu")
    bad = elaborate(ALU.replace("a ^ b", "a ^ ~b"), top="alu")
    for sim_patterns in (64, 0):
        verdict = check_equivalence(good, bad, sim_patterns=sim_patterns,
                                    sweep=False)
        assert not verdict.equivalent
        assert verdict.refuted_by_simulation == (sim_patterns > 0)
        cex = verdict.counterexample
        assert cex is not None and cex.diff
        b_out, _ = simulate(good, cex.inputs)
        a_out, _ = simulate(bad, cex.inputs)
        for kind, name, b_val, a_val in cex.diff:
            assert kind == "output"
            assert (b_out[name], a_out[name]) == (b_val, a_val)
            assert b_val != a_val


# ---------------------------------------------------------------------------
# Incremental solver: assumptions, added clauses, reuse
# ---------------------------------------------------------------------------


def test_solver_assumptions_do_not_commit_the_instance():
    # (x | y) is satisfiable, UNSAT under (-x, -y), satisfiable again.
    solver = Solver(2, [(1, 2)])
    assert solver.solve(assumptions=(-1, -2)).satisfiable is False
    result = solver.solve()
    assert result.satisfiable
    assert result.model[1] or result.model[2]
    # Assumptions appear in the model when satisfiable with them.
    result = solver.solve(assumptions=(-1,))
    assert result.satisfiable
    assert result.model[1] is False and result.model[2] is True


def test_solver_incremental_clause_addition():
    solver = Solver(2, [(1, 2)])
    assert solver.solve().satisfiable
    solver.add_clause((-1,))
    assert solver.solve().satisfiable
    solver.add_clause((-2,))
    assert not solver.solve().satisfiable
    # Once the clause set itself is UNSAT, it stays UNSAT.
    assert not solver.solve().satisfiable


def test_solver_ensure_vars_extends_universe():
    solver = Solver(1, [(1,)])
    solver.ensure_vars(3)
    solver.add_clause((-2, 3))
    solver.add_clause((2,))
    result = solver.solve()
    assert result.satisfiable
    assert result.model[2] and result.model[3]
    with pytest.raises(ValueError):
        solver.add_clause((4,))
    with pytest.raises(ValueError):
        solver.solve(assumptions=(4,))


def test_solver_assumption_gated_miters():
    # Two selector-gated contradictions over one shared instance: each
    # selector is UNSAT alone, the instance stays reusable throughout —
    # the FRAIG query pattern.
    solver = Solver(3, [(1,)])
    solver.ensure_vars(4)
    solver.add_clause((-3, -1))        # t1 -> ~x
    solver.add_clause((-4, 1))         # t2 -> x (consistent)
    assert not solver.solve(assumptions=(3,)).satisfiable
    assert solver.solve(assumptions=(4,)).satisfiable
    assert not solver.solve(assumptions=(3,)).satisfiable
    assert solver.solve().satisfiable


# ---------------------------------------------------------------------------
# Solver-factory parity: the reference engine through the same workloads
# ---------------------------------------------------------------------------


def test_check_equivalence_accepts_a_solver_factory():
    from repro.netlist.sat import ReferenceSolver

    before, after = _mult_pair()
    production = check_equivalence(before, after)
    reference = check_equivalence(before, after,
                                  solver_factory=ReferenceSolver)
    assert production.equivalent and reference.equivalent
    # Both engines really searched: the multiplier pair reaches the
    # top-level solve.
    assert production.solver_stats.conflicts > 0
    assert reference.solver_stats.conflicts > 0


def test_solver_factories_agree_on_a_refutation():
    from repro.netlist.sat import ReferenceSolver

    source = """
module tiny(input a, input b, output y);
  assign y = a & b;
endmodule
"""
    broken = """
module tiny(input a, input b, output y);
  assign y = a | b;
endmodule
"""
    before = elaborate(source, top="tiny")
    after = elaborate(broken, top="tiny")
    for factory in (Solver, ReferenceSolver):
        verdict = check_equivalence(before, after, solver_factory=factory)
        assert not verdict.equivalent
        assert verdict.counterexample is not None
        assert verdict.counterexample.diff


def test_fraig_sweep_accepts_a_solver_factory():
    from repro.netlist import from_netlist, to_netlist
    from repro.netlist.opt import fraig_sweep
    from repro.netlist.sat import ReferenceSolver

    netlist = elaborate(ALU, top="alu")
    for factory in (Solver, ReferenceSolver):
        swept = to_netlist(fraig_sweep(from_netlist(netlist), patterns=8,
                                       solver_factory=factory))
        assert check_equivalence(netlist, swept).equivalent


# ---------------------------------------------------------------------------
# Structure-aware AIG encoding: XOR / MUX / MAJ pattern matching
# ---------------------------------------------------------------------------


def _xor_cone(aig, a, b):
    # a ^ b == ~(~(a & ~b) & ~(~a & b))
    t0 = aig.aig_and(a, aig_not(b))
    t1 = aig.aig_and(aig_not(a), b)
    return aig_not(aig.aig_and(aig_not(t0), aig_not(t1)))


def _mux_cone(aig, s, t, e):
    # s ? t : e == ~(~(s & t) & ~(~s & e))
    return aig_not(aig.aig_and(aig_not(aig.aig_and(s, t)),
                               aig_not(aig.aig_and(aig_not(s), e))))


def _maj_cone(aig, a, b, c):
    # MAJ(a, b, c) == (a&b) | (a&c) | (b&c), OR tree by De Morgan.
    ab = aig.aig_and(a, b)
    ac = aig.aig_and(a, c)
    bc = aig.aig_and(b, c)
    return aig_not(aig.aig_and(aig.aig_and(aig_not(ab), aig_not(ac)),
                               aig_not(bc)))


_STRUCTURAL_CASES = [
    ("xor", _xor_cone, 2, lambda a, b: a ^ b),
    ("mux", _mux_cone, 3, lambda s, t, e: t if s else e),
    ("maj", _maj_cone, 3, lambda a, b, c: (a + b + c) >= 2),
]


@pytest.mark.parametrize("name,build,arity,truth", _STRUCTURAL_CASES,
                         ids=[c[0] for c in _STRUCTURAL_CASES])
def test_structural_aig_encoding_matches_truth_table(name, build, arity,
                                                     truth):
    """Exhaustive check that the pattern-matched compact encodings admit
    exactly the assignments the boolean function does, and that they are
    smaller than plain Tseitin over the same cone."""
    for structural in (False, True):
        aig = AIG()
        ins = [aig.add_input(f"i{k}") for k in range(arity)]
        root = build(aig, *ins)
        cnf = CNF()
        var_map = encode_aig_cone(cnf, aig, [root], structural=structural)
        if structural:
            structural_clauses = len(cnf.clauses)
        else:
            plain_clauses = len(cnf.clauses)
        root_lit = aig_lit_sat(var_map, root)
        for bits in itertools.product((False, True), repeat=arity):
            assume = [aig_lit_sat(var_map, lit) * (1 if val else -1)
                      for lit, val in zip(ins, bits)]
            expected = bool(truth(*bits))
            solver = Solver(cnf.num_vars, cnf.clauses)
            good = solver.solve(
                assumptions=assume + [root_lit if expected else -root_lit])
            assert good.satisfiable, (name, structural, bits)
            bad = solver.solve(
                assumptions=assume + [-root_lit if expected else root_lit])
            assert not bad.satisfiable, (name, structural, bits)
    assert structural_clauses < plain_clauses, name


def test_structural_encoding_verdict_parity_on_alu():
    """The compact encodings must not change any verdict: the ALU against
    its optimized self, with and without structural matching."""
    netlist = elaborate(ALU, top="alu")
    optimized = optimize(netlist).netlist
    for structural in (False, True):
        verdict = check_equivalence(netlist, optimized,
                                    structural=structural)
        assert verdict.equivalent, f"structural={structural}"


# ---------------------------------------------------------------------------
# Simulation refutation + miter sweeping stages of check_equivalence
# ---------------------------------------------------------------------------


def test_broken_design_refuted_by_simulation_without_search():
    """An always-wrong design must fall to the packed-simulation check:
    zero solver conflicts, a replay-confirmed counterexample."""
    good = """
module add(input [7:0] a, input [7:0] b, output [8:0] s);
  assign s = a + b;
endmodule
"""
    bad = """
module add(input [7:0] a, input [7:0] b, output [8:0] s);
  assign s = a + b + 1;
endmodule
"""
    verdict = check_equivalence(elaborate(good, top="add"),
                                elaborate(bad, top="add"))
    assert not verdict.equivalent
    assert verdict.refuted_by_simulation
    assert verdict.solver_stats.conflicts == 0
    assert verdict.counterexample is not None
    assert verdict.counterexample.diff  # replay confirmed it


def test_forced_sweep_is_certified():
    """sweep=True routes root pairs through the in-miter FRAIG sweep; with
    certify=True every merge proof is RUP-checked, and the verdict must
    still be clean."""
    netlist = elaborate(ALU, top="alu")
    optimized = optimize(netlist).netlist
    verdict = check_equivalence(netlist, optimized, sweep=True,
                                certify=True)
    assert verdict.equivalent
    # Everything either hash-proved, sweep-proved, or solver-proved; any
    # UNSAT evidence that existed was checked.
    if verdict.proof_checked is not None:
        assert verdict.proof_checked is True
    assert verdict.hash_proven + verdict.sweep_proven + verdict.compared > 0


def test_sweep_auto_skips_sparse_miters():
    """The density heuristic must leave small cross-implementation miters
    alone (sweep='auto' is the default): verdicts agree with sweep=True
    and sweep=False on a genuinely differing multiplier pair."""
    array = """
module mult(input [2:0] a, input [2:0] b, output [5:0] p);
  assign p = a * b;
endmodule
"""
    shift = """
module mult(input [2:0] a, input [2:0] b, output [5:0] p);
  assign p = (b[0] ? {3'b000, a} : 6'b000000)
           + (b[1] ? {2'b00, a, 1'b0} : 6'b000000)
           + (b[2] ? {1'b0, a, 2'b00} : 6'b000000);
endmodule
"""
    before = elaborate(array, top="mult")
    after = elaborate(shift, top="mult")
    for sweep in ("auto", True, False):
        verdict = check_equivalence(before, after, sweep=sweep)
        assert verdict.equivalent, f"sweep={sweep}"


# ---------------------------------------------------------------------------
# Serial / partitioned parity: jobs=1 and jobs=2 run the same decide stage
# ---------------------------------------------------------------------------


def _broken_counter():
    netlist = elaborate(COUNTER, top="counter")
    name, gid = sorted(netlist.register_map().items())[0]
    data = netlist.gates[gid].fanins[0]
    netlist.set_fanins(gid, (netlist.make_not(data),))
    return netlist


def _parity_cases():
    alu = elaborate(ALU, top="alu")
    counter = elaborate(COUNTER, top="counter")
    mult_a, mult_b = _mult_pair()
    return {
        "alu": (alu, optimize(alu).netlist),
        "alu_broken": (alu, elaborate(ALU.replace("a ^ b", "a ^ ~b"),
                                      top="alu")),
        "counter": (counter, optimize(counter).netlist),
        "counter_broken": (counter, _broken_counter()),
        "mult": (mult_a, mult_b),
        "mult_broken": (mult_a, elaborate(MULT_BAD, top="mult")),
    }


_PARITY_CONFIGS = {
    "default": {},
    # No simulation check and no sweep: every surviving pair reaches the
    # decide stage, so jobs=2 really shards it.
    "solve": {"sim_patterns": 0, "sweep": False},
}


@pytest.mark.parametrize("config", sorted(_PARITY_CONFIGS))
@pytest.mark.parametrize("case", sorted(_parity_cases()))
def test_serial_and_partitioned_cec_agree(case, config):
    before, after = _parity_cases()[case]
    options = _PARITY_CONFIGS[config]
    serial = check_equivalence(before, after, jobs=1, **options)
    parallel = check_equivalence(before, after, jobs=2, **options)
    for name in ("equivalent", "compared", "hash_proven", "sweep_proven",
                 "refuted_by_simulation"):
        assert getattr(serial, name) == getattr(parallel, name), name
    assert set(serial.to_report()) == set(parallel.to_report())
    assert serial.equivalent == (not case.endswith("_broken"))
    assert serial.partitions == 0
    if config == "solve" and parallel.compared - parallel.hash_proven > 1:
        # Precondition: the partitioned decide stage actually ran.
        assert parallel.partitions >= 1 and parallel.jobs == 2
    for verdict in (serial, parallel):
        if verdict.equivalent:
            assert verdict.counterexample is None
            continue
        cex = verdict.counterexample
        assert cex is not None and cex.diff
        assert replay_counterexample(before, after, cex.inputs,
                                     cex.state) == cex.diff


def test_sat_verdict_carries_sweep_proof_counters():
    """A refutation found after a certified sweep still reports the
    sweep's proof work, check time included."""
    good = elaborate(ALU, top="alu")
    bad = elaborate(ALU.replace("a ^ b", "a ^ ~b"), top="alu")
    verdict = check_equivalence(good, bad, sim_patterns=0, sweep=True,
                                certify=True)
    assert not verdict.equivalent
    assert verdict.proof_clauses > 0
    assert verdict.proof_check_seconds > 0


def _associativity_miter():
    aig = AIG()
    a, b, c, d = (aig.add_input(name) for name in "abcd")
    pairs = [(aig.aig_and(a, aig.aig_and(b, c)),
              aig.aig_and(aig.aig_and(a, b), c)),
             (aig.aig_and(b, aig.aig_and(c, d)),
              aig.aig_and(aig.aig_and(b, c), d))]
    lits = {name: aig.input_lit(name) for name in "abcd"}
    return aig, pairs, lits


def test_encode_seconds_exclude_preprocessing(monkeypatch):
    """The serial decide stage and the partition worker time encoding
    alone; preprocessing is reported in ``preprocessor["seconds"]``."""
    import time

    from repro.netlist.sat import cec, decide, solve_pairs_parallel

    delay = 0.2
    calls = []
    real = cec.simplify_cnf

    def slow_preprocess(*args, **kwargs):
        calls.append(1)
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(cec, "simplify_cnf", slow_preprocess)
    aig, pairs, lits = _associativity_miter()
    serial = decide(aig, pairs, lits, {})
    # One shard: the worker entry point runs in-process.
    sharded = solve_pairs_parallel(aig, pairs, lits, {}, jobs=1)
    assert len(calls) == 2
    for decision in (serial, sharded):
        assert not decision.satisfiable
        assert decision.preprocessor is not None
        assert decision.encode_seconds < delay
    assert sharded.partitions == 1


# ---------------------------------------------------------------------------
# Per-pair decide parity: check_equivalence vs one monolithic solve
# ---------------------------------------------------------------------------


def _array_mult_src(width):
    """Carry-save array multiplier: structurally unlike the shift-and-add
    lowering of ``*``, so its miter needs the solver."""
    wide = 2 * width
    return f"""
module mult (input [{width - 1}:0] a, input [{width - 1}:0] b,
             output reg [{wide - 1}:0] p);
  reg [{wide - 1}:0] pp;
  reg [{wide - 1}:0] sum;
  reg [{wide - 1}:0] carry;
  reg [{wide - 1}:0] next;
  integer r;
  always @(*) begin
    sum = 0;
    carry = 0;
    for (r = 0; r < {width}; r = r + 1) begin
      pp = b[r] ? ({{{width}'d0, a}} << r) : 0;
      next = sum ^ pp ^ carry;
      carry = ((sum & pp) | (carry & (sum ^ pp))) << 1;
      sum = next;
    end
    p = sum + carry;
  end
endmodule
"""


def _shift_add_mult_src(width, broken=False):
    """``a * b``; the broken twin XORs ``a[W-1] & b[W-1]`` into the top
    product bit, so only the largest cone differs."""
    expr = "a * b"
    if broken:
        expr = (f"(a * b) ^ ({{{2 * width - 1}'d0, a[{width - 1}] & "
                f"b[{width - 1}]}} << {2 * width - 1})")
    return f"""
module mult (input [{width - 1}:0] a, input [{width - 1}:0] b,
             output [{2 * width - 1}:0] p);
  assign p = {expr};
endmodule
"""


def _ripple_adder_src(width, broken=False):
    """Loop adder with a majority carry; the broken twin flips the carry
    into the top sum bit."""
    flip = f" ^ (i == {width - 1})" if broken else ""
    return f"""
module add (input [{width - 1}:0] a, input [{width - 1}:0] b,
            output reg [{width}:0] sum);
  reg c;
  integer i;
  always @(*) begin
    c = 0;
    for (i = 0; i < {width}; i = i + 1) begin
      sum[i] = a[i] ^ b[i] ^ (c{flip});
      c = (a[i] & b[i]) | (a[i] & c) | (b[i] & c);
    end
    sum[{width}] = c;
  end
endmodule
"""


def _plus_adder_src(width):
    return f"""
module add (input [{width - 1}:0] a, input [{width - 1}:0] b,
            output [{width}:0] sum);
  assign sum = a + b;
endmodule
"""


_ALU_OPS = ["a + b", "a - b", "(a + b) + 1", "a & b", "a | b", "a ^ b",
            "(a < b) ? a : b", "b - a"]


def _alu_src(width, ops):
    arms = "\n".join(f"      3'd{i}: y = {expr};"
                     for i, expr in enumerate(ops[:-1]))
    return f"""
module alu (input [{width - 1}:0] a, input [{width - 1}:0] b,
            input [2:0] op, output reg [{width - 1}:0] y);
  wire [{width}:0] diff;
  assign diff = {{1'b0, a}} - {{1'b0, b}};
  always @(*) begin
    case (op)
{arms}
      default: y = {ops[-1]};
    endcase
  end
endmodule
"""


def _alu_alt_src(width, broken=False):
    """The same ALU another way: subtraction as ``a + ~b + 1``, the
    comparison from a widened borrow; the broken twin flips the top bit
    of the minimum."""
    ops = ["a + b", "a + ~b + 1", "a + b + 1", "~(~a | ~b)", "~(~a & ~b)",
           "(a | b) & ~(a & b)", f"diff[{width}] ? a : b", "b + ~a + 1"]
    if broken:
        ops[6] = f"({ops[6]}) ^ {width}'d{1 << (width - 1)}"
    return _alu_src(width, ops)


def _decide_corpus():
    """Miters the simulation check and hashing cannot close, each with a
    broken twin whose only differing pair is not the first one queried."""
    corpus = {}
    for width in (3, 4, 5):
        before = elaborate(_array_mult_src(width), top="mult")
        for broken in (False, True):
            corpus[f"mult_w{width}" + "_broken" * broken] = (
                before, elaborate(_shift_add_mult_src(width, broken),
                                  top="mult"))
    for broken in (False, True):
        corpus["adder" + "_broken" * broken] = (
            elaborate(_ripple_adder_src(8, broken), top="add"),
            elaborate(_plus_adder_src(8), top="add"))
        corpus["alu" + "_broken" * broken] = (
            elaborate(_alu_src(4, _ALU_OPS), top="alu"),
            elaborate(_alu_alt_src(4, broken), top="alu"))
    return corpus


_DECIDE_CORPUS = _decide_corpus()


@functools.cache
def _monolithic_satisfiable(case):
    """Reference answer: one solve, no assumptions, of the whole miter —
    every output pair XOR-ed over shared inputs, the XORs OR-ed."""
    before, after = _DECIDE_CORPUS[case]
    aig = AIG()
    leaves = {name: aig.add_input(name)
              for name in sorted(before.input_names())}
    roots = []
    for netlist in (before, after):
        lit_map = insert_netlist(aig, netlist, {
            gid: leaves[netlist.gates[gid].name] for gid in netlist.inputs
        }, {})
        roots.append({name: lit_map[net] for name, net in netlist.outputs})
    cnf = CNF()
    var_map = encode_aig_cone(cnf, aig, [*roots[0].values(),
                                         *roots[1].values()])
    disagree = []
    for name in sorted(roots[0]):
        b = aig_lit_sat(var_map, roots[0][name])
        a = aig_lit_sat(var_map, roots[1][name])
        z = cnf.new_var()
        cnf.add_clause(-z, b, a)
        cnf.add_clause(-z, -b, -a)
        cnf.add_clause(z, -b, a)
        cnf.add_clause(z, b, -a)
        disagree.append(z)
    cnf.add_clause(*disagree)
    return Solver(cnf.num_vars, cnf.clauses).solve().satisfiable


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine", [Solver, ReferenceSolver],
                         ids=["solver", "reference"])
@pytest.mark.parametrize("case", sorted(_DECIDE_CORPUS))
def test_per_pair_decide_matches_monolithic_solve(case, engine, jobs,
                                                  certify):
    """The per-pair decide loop gives the verdict of a monolithic solve of
    the same miter on every engine, serial and partitioned, certified or
    not; counterexamples replay and certified proofs check."""
    before, after = _DECIDE_CORPUS[case]
    broken = case.endswith("_broken")
    # Broken twins skip the simulation check, so the solver finds the
    # disagreement after proving the smaller pairs; no sweep, so every
    # surviving pair of an equivalent miter reaches the loop.
    options = {"sim_patterns": 0} if broken else {"sweep": False}
    tracer = Tracer()
    with use_tracer(tracer):
        verdict = check_equivalence(before, after, solver_factory=engine,
                                    jobs=jobs, certify=certify, **options)
    assert verdict.equivalent == (not _monolithic_satisfiable(case))
    assert verdict.equivalent == (not broken)
    solves = [r for r in tracer.spans() if r.name == "cec.solve"]
    assert solves, "the decide stage never ran"
    if broken:
        assert not verdict.refuted_by_simulation
        cex = verdict.counterexample
        assert cex is not None and cex.diff
        assert replay_counterexample(before, after, cex.inputs,
                                     cex.state) == cex.diff
        if verdict.partitions == 0:
            # Serial: the refuting query was not the first one asked.
            (solve,) = solves
            assert solve.args["queries"] > 1
    else:
        assert verdict.counterexample is None
        assert sum(r.args["queries"] for r in solves) == \
            verdict.compared - verdict.hash_proven
        if certify:
            assert verdict.proof_checked is True


def test_stage_times_are_disjoint(monkeypatch):
    """The sweep's proof checks count in ``proof_check_seconds`` only, so
    the stage times of a certified, sweeping check sum to no more than
    the call's wall time.  Slowed checks make a double count show."""
    import time

    from repro.netlist.opt import fraig

    delay = 0.02
    real = fraig.check_drat

    def slow_check(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(fraig, "check_drat", slow_check)
    netlist = elaborate(ALU, top="alu")
    optimized = optimize(netlist).netlist
    start = time.perf_counter()
    verdict = check_equivalence(netlist, optimized, sweep=True, certify=True)
    wall = time.perf_counter() - start
    assert verdict.equivalent
    assert verdict.proof_check_seconds >= delay
    stages = (verdict.encode_seconds + verdict.sweep_seconds
              + (verdict.preprocessor or {}).get("seconds", 0.0)
              + verdict.solve_seconds + verdict.proof_check_seconds)
    assert verdict.sweep_seconds >= 0
    assert stages <= wall
