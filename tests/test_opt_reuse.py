"""``optimize`` reuses work without changing its result.

Three shortcuts sit on the rewrite path and each must be exact:

* :class:`PassManager` memoizes pass runs on the input's content hash,
  so an input a pass has already transformed is not transformed again;
* :func:`enumerate_cut_truths` composes every cut's truth table while
  merging cuts, replacing a per-cut cone simulation (:func:`cut_truth`);
* the rewrite probe takes a cost budget and gives up once a candidate
  could no longer be accepted.

Each is checked against its plain counterpart on the benchmark designs of
``scripts/bench.py`` plus a hierarchical design with several instances.
"""

import importlib.util
import os
import pickle

import pytest

from repro.netlist import elaborate, from_netlist
from repro.netlist.logic import Netlist
from repro.netlist.opt import (
    DEFAULT_PIPELINE,
    cut_truth,
    enumerate_cuts,
    optimize,
    resolve_passes,
)
from repro.netlist.opt import rewrite as rewrite_mod
from repro.netlist.opt.cut import _pad_to_4, enumerate_cut_truths
from repro.netlist.opt.passes import Pass
from repro.obs import Tracer, set_tracer

_BENCH = os.path.join(os.path.dirname(__file__), os.pardir,
                      "scripts", "bench.py")
_spec = importlib.util.spec_from_file_location("_bench_designs_reuse",
                                               _BENCH)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)

HIER = """
module add4 (input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule

module sel4 (input [3:0] a, input [3:0] b, input [1:0] op,
             output reg [3:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a & b;
      2'd1: y = a | b;
      2'd2: y = a ^ b;
      default: y = a - b;
    endcase
  end
endmodule

module top (input [3:0] x, input [3:0] y, input [1:0] op,
            output [4:0] s0, output [4:0] s1, output [3:0] r0,
            output [3:0] r1);
  add4 u0 (.a(x), .b(y), .s(s0));
  add4 u1 (.a(y), .b(x), .s(s1));
  sel4 u2 (.a(x), .b(y), .op(op), .y(r0));
  sel4 u3 (.a(s0[3:0]), .b(y), .op(op), .y(r1));
endmodule
"""


def _bench_design(factory, width):
    name, src, _ = factory(width)
    return elaborate(src, top=name)


#: The five benchmark designs (the ALU at the width where rewrite finds
#: real gains) plus the hierarchical multi-instance design.
DESIGNS = [
    ("adder", lambda: _bench_design(_bench.adder_design, 8)),
    ("muxtree", lambda: _bench_design(_bench.muxtree_design, 8)),
    ("counter", lambda: _bench_design(_bench.counter_design, 8)),
    ("alu", lambda: _bench_design(_bench.alu_design, 8)),
    ("multiplier", lambda: _bench_design(_bench.multiplier_design, 4)),
    ("hier", lambda: elaborate(HIER, top="top")),
]
DESIGN_IDS = [row[0] for row in DESIGNS]


@pytest.fixture(params=DESIGNS, ids=DESIGN_IDS)
def netlist(request):
    return request.param[1]()


# ---------------------------------------------------------------------------
# Cut truth tables composed during enumeration
# ---------------------------------------------------------------------------


def test_composed_truths_equal_cut_truth(netlist):
    for aig in (from_netlist(netlist),
                from_netlist(optimize(netlist).netlist)):
        cuts, truths = enumerate_cut_truths(aig, limit=8)
        assert cuts == enumerate_cuts(aig, k=4, limit=8)
        checked = 0
        for nid, node_cuts in cuts.items():
            assert len(truths[nid]) == len(node_cuts)
            for cut, tt in zip(node_cuts, truths[nid]):
                expected = _pad_to_4(cut_truth(aig, nid, cut), len(cut))
                assert tt == expected, (nid, cut)
                checked += 1
        assert checked > len(cuts)


# ---------------------------------------------------------------------------
# Budgeted rewrite probes
# ---------------------------------------------------------------------------


def test_budgeted_probe_matches_unbounded(netlist, monkeypatch):
    probe = rewrite_mod._probe_structure
    seen = []

    def checked_probe(new, levels, root, nodes, slots, budget=None):
        full = probe(new, levels, root, nodes, slots)
        cost = full[0]
        for limit in range(-1, cost + 2):
            bounded = probe(new, levels, root, nodes, slots, limit)
            if cost <= limit:
                assert bounded == full
            else:
                assert bounded is None
        seen.append(cost)
        return probe(new, levels, root, nodes, slots, budget)

    monkeypatch.setattr(rewrite_mod, "_probe_structure", checked_probe)
    rewrite_mod.rewrite_aig(from_netlist(netlist))
    assert seen
    assert max(seen) >= 1


def test_budgeted_rewrite_matches_unbudgeted(netlist, monkeypatch):
    aig = from_netlist(netlist)
    budgeted_stats = rewrite_mod.RewriteStats()
    budgeted = rewrite_mod.rewrite_aig(aig, stats=budgeted_stats)
    probe = rewrite_mod._probe_structure

    def unbounded_probe(new, levels, root, nodes, slots, budget=None):
        return probe(new, levels, root, nodes, slots)

    monkeypatch.setattr(rewrite_mod, "_probe_structure", unbounded_probe)
    full_stats = rewrite_mod.RewriteStats()
    full = rewrite_mod.rewrite_aig(aig, stats=full_stats)
    assert budgeted.content_hash() == full.content_hash()
    assert budgeted_stats.to_dict() == full_stats.to_dict()


# ---------------------------------------------------------------------------
# Pass memo in the pass manager
# ---------------------------------------------------------------------------


def _reference_optimize(netlist, max_iterations=8):
    """The default fixpoint loop with every pass always run."""
    passes = resolve_passes(DEFAULT_PIPELINE)
    rows = []
    current = netlist
    for iteration in range(1, max_iterations + 1):
        gates, levels = current.num_gates, current.logic_levels()
        for opt_pass in passes:
            before = (current.num_gates, current.logic_levels())
            current = opt_pass.run(current)
            rows.append((opt_pass.name, iteration, *before,
                         current.num_gates, current.logic_levels()))
        if current.num_gates >= gates and current.logic_levels() >= levels:
            break
    return current, rows


def test_memoized_optimize_matches_reference_loop(netlist):
    reference, ref_rows = _reference_optimize(netlist)
    result = optimize(netlist)
    assert result.netlist.content_hash() == reference.content_hash()
    rows = [(row.name, row.iteration, row.gates_before, row.levels_before,
             row.gates_after, row.levels_after) for row in result.stats]
    assert rows == ref_rows


class _CountingPass(Pass):
    """Wraps a pass and records the content hash of every input it runs on."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.inputs = []

    def run(self, netlist):
        self.inputs.append(netlist.content_hash())
        return self.inner.run(netlist)


def test_each_pass_sees_each_input_once(netlist):
    counting = [_CountingPass(p) for p in resolve_passes(DEFAULT_PIPELINE)]
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = optimize(netlist, passes=counting)
    finally:
        set_tracer(previous)
    for opt_pass in counting:
        assert len(opt_pass.inputs) == len(set(opt_pass.inputs)), \
            opt_pass.name
    hits = [row for row in result.stats
            if row.details == {"memo_hit": True}]
    runs = sum(len(p.inputs) for p in counting)
    assert runs + len(hits) == len(result.stats)
    assert tracer.metrics.counter("opt.memo_hits").value == len(hits)


def test_memo_hit_row_carries_no_stale_pass_stats():
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = optimize(elaborate(HIER, top="top"))
    finally:
        set_tracer(previous)
    rewrites = [row for row in result.stats if row.name == "rewrite"]
    assert len(rewrites) == 2
    assert "cuts_evaluated" in rewrites[0].details
    # The confirming iteration hands rewrite the input it already saw.
    assert rewrites[1].details == {"memo_hit": True}
    hit_spans = [r for r in tracer.spans()
                 if r.name == "opt.rewrite" and r.args.get("memo_hit")]
    assert len(hit_spans) == 1


def test_memo_is_per_optimize_call():
    netlist = _bench_design(_bench.alu_design, 8)
    first = optimize(netlist)
    second = optimize(netlist)
    assert second.netlist.content_hash() == first.netlist.content_hash()
    assert not (second.stats[0].details or {}).get("memo_hit")


# ---------------------------------------------------------------------------
# Cached netlist statistics
# ---------------------------------------------------------------------------


def _fresh(netlist):
    """An uncached structural copy (pickling drops every cache)."""
    return pickle.loads(pickle.dumps(netlist))


def _stats_match_fresh(netlist):
    fresh = _fresh(netlist)
    assert netlist.num_gates == fresh.num_gates
    assert netlist.num_registers == fresh.num_registers
    assert netlist.logic_levels() == fresh.logic_levels()
    assert netlist.stats() == fresh.stats()


def test_cached_stats_follow_every_mutation():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    _stats_match_fresh(netlist)
    g = netlist.make_and(a, b)
    _stats_match_fresh(netlist)
    h = netlist.make_xor(g, a)
    q = netlist.add_dff(h, name="q")
    _stats_match_fresh(netlist)
    deep = netlist.make_or(netlist.make_not(h), q)
    netlist.add_output("y", deep)
    _stats_match_fresh(netlist)
    assert netlist.logic_levels() == 4
    netlist.set_fanins(deep, (a, q))
    _stats_match_fresh(netlist)
    assert netlist.logic_levels() == 3
    netlist.const1()
    _stats_match_fresh(netlist)
