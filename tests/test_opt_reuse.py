"""``optimize`` reuses work without changing its result.

Several shortcuts sit on the rewrite path and each must be exact:

* :class:`PassManager` memoizes pass runs on the input's content hash,
  so an input a pass has already transformed is not transformed again;
* :func:`enumerate_cut_truths` composes every cut's truth table while
  merging cuts, replacing a per-cut cone simulation (:func:`cut_truth`);
* cut enumeration merges cuts as leaf bitmasks instead of leaf tuples;
* the rewrite probe takes a cost budget and gives up once a candidate
  could no longer be accepted;
* the rewrite sweep answers a node's repeated probes from a per-node
  memo.

Each is checked against its plain counterpart on the benchmark designs of
``scripts/bench.py`` plus a hierarchical design with several instances,
and the cut and memo shortcuts also on seeded random AIGs.
"""

import importlib.util
import os
import pickle
import random

import pytest

from repro.netlist import elaborate, from_netlist
from repro.netlist.aig import AIG
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
from repro.obs import Tracer, set_tracer, use_tracer

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


def _random_aig(seed, inputs=7, steps=90):
    """A seeded random combinational AIG with reconvergent AND/XOR/MUX
    structure (operands drawn mostly from recent nodes)."""
    rng = random.Random(seed)
    aig = AIG(f"rand{seed}")
    lits = [aig.add_input(f"i{n}") for n in range(inputs)]

    def pick():
        lit = lits[-1 - min(int(rng.expovariate(0.15)), len(lits) - 1)]
        return lit ^ rng.randrange(2)

    for _ in range(steps):
        op = rng.random()
        if op < 0.6:
            lit = aig.aig_and(pick(), pick())
        elif op < 0.8:
            lit = aig.aig_xor(pick(), pick())
        else:
            lit = aig.aig_mux(pick(), pick(), pick())
        if lit > 1:
            lits.append(lit)
    for n, lit in enumerate(lits[-6:]):
        aig.add_output(f"o{n}", lit)
    return aig


RANDOM_SEEDS = range(8)


@pytest.fixture(params=RANDOM_SEEDS, ids=[f"rand{s}" for s in RANDOM_SEEDS])
def random_aig(request):
    return _random_aig(request.param)


def _reference_cuts(aig, k, limit):
    """Plain tuple-merge priority cuts: pairwise fanin-cut unions of at
    most ``k`` leaves, deduplicated in (i, j) order, stably sorted by
    size, dominated unions dropped, at most ``limit`` per node after the
    trivial cut."""
    cuts = {}
    for nid in sorted(aig.cone(aig.and_roots())):
        if not aig.is_and(nid):
            cuts[nid] = [(nid,)]
            continue
        f0, f1 = aig.fanins(nid)
        c0 = cuts.get(f0 >> 1) or [(f0 >> 1,)]
        c1 = cuts.get(f1 >> 1) or [(f1 >> 1,)]
        unions = []
        for a in c0:
            for b in c1:
                union = tuple(sorted(set(a) | set(b)))
                if len(union) <= k and union not in unions:
                    unions.append(union)
        unions.sort(key=len)
        kept = [(nid,)]
        for union in unions:
            if any(set(prev) <= set(union) for prev in kept[1:]):
                continue
            kept.append(union)
            if len(kept) > limit:
                break
        cuts[nid] = kept
    return cuts


def _check_cuts_match_reference(aig):
    for k in (4, 6):
        reference = _reference_cuts(aig, k, 8)
        assert enumerate_cuts(aig, k=k, limit=8) == reference, k
    cuts, truths = enumerate_cut_truths(aig, limit=8)
    assert cuts == _reference_cuts(aig, 4, 8)
    for nid, node_cuts in cuts.items():
        assert truths[nid] == [_pad_to_4(cut_truth(aig, nid, cut), len(cut))
                               for cut in node_cuts], nid


def test_bitmask_cuts_match_tuple_merge_reference(netlist):
    for aig in (from_netlist(netlist),
                from_netlist(optimize(netlist).netlist)):
        _check_cuts_match_reference(aig)


def test_bitmask_cuts_match_reference_on_random_aigs(random_aig):
    _check_cuts_match_reference(random_aig)
    assert max(len(c) for c in enumerate_cuts(random_aig, 6, 8).values()) \
        == 9


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
# Per-node probe memo
# ---------------------------------------------------------------------------


def _check_memo_is_exact(aig, monkeypatch):
    for zero_cost in (False, True):
        memo_stats = rewrite_mod.RewriteStats()
        memoized = rewrite_mod.rewrite_aig(aig, stats=memo_stats,
                                           zero_cost=zero_cost)
        with monkeypatch.context() as patch:
            # A fresh object never equals an earlier key: every lookup
            # misses, so every probe runs.
            patch.setattr(rewrite_mod, "_probe_key",
                          lambda *args: object())
            plain_stats = rewrite_mod.RewriteStats()
            plain = rewrite_mod.rewrite_aig(aig, stats=plain_stats,
                                            zero_cost=zero_cost)
        assert memoized.content_hash() == plain.content_hash()
        assert memo_stats.to_dict() == plain_stats.to_dict()
        assert plain_stats.probe_memo_hits == 0
        assert plain_stats.probes == \
            memo_stats.probes + memo_stats.probe_memo_hits
        assert plain_stats.fanin_probes_skipped == \
            memo_stats.fanin_probes_skipped
        if zero_cost:
            assert memo_stats.fanin_probes_skipped == 0
    return memo_stats


def test_probe_memo_matches_unmemoized_rewrite(netlist, monkeypatch):
    _check_memo_is_exact(from_netlist(netlist), monkeypatch)


def test_probe_memo_matches_unmemoized_on_random_aigs(random_aig,
                                                      monkeypatch):
    _check_memo_is_exact(random_aig, monkeypatch)


def test_rewrite_span_and_metrics_count_probe_work():
    aig = from_netlist(_bench_design(_bench.alu_design, 8))
    stats = rewrite_mod.RewriteStats()
    tracer = Tracer()
    with use_tracer(tracer):
        rewrite_mod.rewrite_aig(aig, stats=stats)
    assert stats.probes > 0 and stats.probe_memo_hits > 0
    assert stats.fanin_probes_skipped > 0
    assert "probes" not in stats.to_dict()
    span = [r for r in tracer.spans() if r.name == "rewrite"][0]
    metrics = tracer.metrics.to_dict()
    for name in ("probes", "probe_memo_hits", "fanin_probes_skipped"):
        assert span.args[name] == getattr(stats, name)
        assert metrics[f"rewrite.{name}"]["value"] == getattr(stats, name)


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
