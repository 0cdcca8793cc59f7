"""DAG-aware rewriting: replace 4-cut cones with optimal NPN structures.

The classic ABC ``rewrite`` pass on this repo's hash-consed AIG.  For
every AND node, in topological order, the pass takes its 4-feasible cuts
with their truth tables (:func:`repro.netlist.opt.cut.enumerate_cut_truths`
composes each table while it merges the cut) and asks whether
instantiating the precomputed size-optimal structure for the function's
NPN class would beat rebuilding the node as-is:

* *saved* is the size of the node's maximal fanout-free cone w.r.t. the
  cut — the nodes that die with it, counted by one walk over live fanout
  counts that leaves them untouched (the mutating dereference walk runs
  only when a replacement commits);
* *cost* is the number of genuinely new AND nodes the replacement would
  insert, probed against the output graph's unique table *without*
  inserting anything — logic already built (by earlier replacements, by
  sharing with untouched cones) is free, which is what makes the pass
  DAG-aware rather than tree-local.  Each probe gets the budget
  ``saved - max(baseline gain, best gain so far)`` and stops once its
  cost exceeds it: such a candidate could not be accepted anyway.

Probing is the pass's main cost, so each node answers its repeated
probes once.  Transforms and cuts often instantiate the same class
structure over the same literals once the inputs the structure never
reads are ignored; a per-node memo keyed on (class, root literal, read
input literals) answers those from a completed probe (any budget) or a
pruned one (any budget up to the one it was pruned under).  The cut made
of the node's own two fanins only rebuilds the AND itself, which ties the
baseline at best, so its probe is skipped unless ``zero_cost`` commits
ties.  Each truth table's NPN class, structure and transforms are decoded
once into a plan shared by every cut with that table.

On top of the structural probe, every sweep keeps a *functional
cut-sweep table*: each committed node registers, for every cut evaluated
on it, the key (NPN class of the cut function, concrete literals feeding
the canonical inputs) mapped to its output literal.  A later node whose
cut hits an existing key computes the *same function of the same
literals* through a possibly completely different structure — it merges
into the committed cone at zero cost, harvesting its whole MFFC.  This
catches functional redundancy structural hashing can never see, without
any SAT.

A replacement is committed when it strictly saves nodes, or saves nothing
but strictly reduces the node's level (zero-gain depth rescue).  One
rewrite sweep is a single topological rebuild; :func:`rewrite_aig` runs
sweeps to a fixpoint and compacts the survivor cone.  The pass is
registered as ``rewrite`` in the default :func:`repro.netlist.opt.optimize`
pipeline ahead of ``fraig``, so SAT sweeping sees the smaller graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from ...obs import get_tracer
from ..aig import _AND, AIG, from_netlist, to_netlist
from ..logic import Netlist
from .cut import enumerate_cut_truths, npn_canon, npn_transforms
from .npn4 import NPN4_LIBRARY
from .passes import Pass

__all__ = ["RewriteStats", "rewrite_aig", "RewritePass"]


@dataclass
class RewriteStats:
    """Counters for one :func:`rewrite_aig` run (all sweeps summed)."""

    ands_before: int = 0
    ands_after: int = 0
    sweeps: int = 0
    cuts_evaluated: int = 0
    replacements: int = 0
    zero_gain_depth: int = 0
    nodes_saved: int = 0
    #: Probe work, kept out of :meth:`to_dict`: how many structures were
    #: dry-run, how many probes the per-node memo answered, and how many
    #: fanin-cut probes were skipped.  They measure effort, not result.
    probes: int = 0
    probe_memo_hits: int = 0
    fanin_probes_skipped: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ands_before": self.ands_before,
            "ands_after": self.ands_after,
            "sweeps": self.sweeps,
            "cuts_evaluated": self.cuts_evaluated,
            "replacements": self.replacements,
            "zero_gain_depth": self.zero_gain_depth,
            "nodes_saved": self.nodes_saved,
        }


def _live_ands(aig: AIG) -> list[int]:
    """Live AND nodes (reachable from outputs/next-states), ascending."""
    return [nid for nid in sorted(aig.cone(aig.and_roots()))
            if aig.is_and(nid)]


def _deref_cone(aig: AIG, refs: dict[int, int], nid: int,
                leaves: tuple[int, ...], stop: set[int]) -> int:
    """Release ``nid``'s fanin references; returns the MFFC size.

    The recursive edge walk of Abc_NodeDeref: an AND fanin whose count
    drops to zero dies with the cone and is descended into, unless it is
    a cut leaf or an already-replaced node (whose old fanins were released
    when it was rewritten).
    """
    size = 1
    for fl in (aig._fanin0[nid], aig._fanin1[nid]):
        fn = fl >> 1
        refs[fn] -= 1
        if refs[fn] == 0 and aig._kind[fn] == _AND \
                and fn not in leaves and fn not in stop:
            size += _deref_cone(aig, refs, fn, leaves, stop)
    return size


def _mffc_size(aig: AIG, refs: dict[int, int], nid: int,
               leaves: tuple[int, ...], stop: set[int]) -> int:
    """The size :func:`_deref_cone` would return, without touching ``refs``.

    A node dies with the cone once as many of its references come from
    the dying nodes as it has live ones, so counting the references each
    node receives from the walk finds the same set in any visiting order.
    """
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    kinds = aig._kind
    taken: dict[int, int] = {}
    stack = [nid]
    size = 1
    while stack:
        node = stack.pop()
        for fn in (fanin0[node] >> 1, fanin1[node] >> 1):
            count = taken.get(fn, 0) + 1
            taken[fn] = count
            if count == refs[fn] and kinds[fn] == _AND \
                    and fn not in leaves and fn not in stop:
                size += 1
                stack.append(fn)
    return size


#: Virtual literals for not-yet-inserted nodes during a cost probe start
#: far above any real literal (node ids only grow by insertion).
_VIRT_BASE = 1 << 40


def _probe_structure(new: AIG, levels: dict[int, int], root: int,
                     nodes: tuple, slots: list[int],
                     budget: Optional[int] = None
                     ) -> Optional[tuple[int, int, Optional[int]]]:
    """Dry-run a library structure against ``new``'s unique table.

    Mirrors :meth:`AIG.aig_and`'s folding exactly but inserts nothing:
    structure nodes that fold away or already exist are free, anything
    else becomes a virtual literal costing one node.  Returns
    ``(cost, level, real_root_lit)`` where ``real_root_lit`` is the
    concrete output literal when the whole structure resolved to existing
    logic (cost 0), else None.  With a ``budget`` the probe stops as soon
    as the cost exceeds it and returns None instead.
    """
    if budget is None:
        budget = len(nodes)
    elif budget < 0:
        return None
    table = new._table
    vtable: dict[tuple[int, int], int] = {}
    vlevel: dict[int, int] = {}
    vals = slots[:]
    cost = 0
    vnext = _VIRT_BASE
    for l0, l1 in nodes:
        a = vals[l0 >> 1] ^ (l0 & 1)
        b = vals[l1 >> 1] ^ (l1 & 1)
        if a == b:
            r = a
        elif a == (b ^ 1) or a == 0 or b == 0:
            r = 0
        elif a == 1:
            r = b
        elif b == 1:
            r = a
        else:
            key = (a, b) if a < b else (b, a)
            r = vtable.get(key)
            if r is None and key[1] < _VIRT_BASE:
                r = table.get(key)
            if r is None:
                r = vnext
                vnext += 2
                cost += 1
                if cost > budget:
                    return None
                la = vlevel.get(a >> 1)
                if la is None:
                    la = levels.get(a >> 1, 0)
                lb = vlevel.get(b >> 1)
                if lb is None:
                    lb = levels.get(b >> 1, 0)
                vlevel[r >> 1] = 1 + (la if la >= lb else lb)
            vtable[key] = r
        vals.append(r)
    out = vals[root >> 1] ^ (root & 1)
    onid = out >> 1
    olevel = vlevel.get(onid)
    if olevel is None:
        olevel = levels.get(onid, 0)
    return cost, olevel, (out if out < _VIRT_BASE else None)


def _build_structure(new: AIG, levels: dict[int, int], root: int,
                     nodes: tuple, slots: list[int]) -> int:
    """Actually insert a library structure; keeps ``levels`` current."""
    vals = slots[:]
    for l0, l1 in nodes:
        a = vals[l0 >> 1] ^ (l0 & 1)
        b = vals[l1 >> 1] ^ (l1 & 1)
        r = new.aig_and(a, b)
        nid = r >> 1
        if nid not in levels:
            f0, f1 = new.fanins(nid)
            la = levels.get(f0 >> 1, 0)
            lb = levels.get(f1 >> 1, 0)
            levels[nid] = 1 + (la if la >= lb else lb)
        vals.append(r)
    return vals[root >> 1] ^ (root & 1)


#: Decoded rewrite plan per cut truth table, filled lazily:
#: ``(canon, nodes, pick, transforms)`` — the function's NPN class, the
#: class's library structure, a picker of the formal inputs the structure
#: reads, and one ``(p0, p1, p2, p3, n0, n1, n2, n3, out, root)`` row per
#: cached transform (formal input ``i`` is fed cut leaf ``p_i``
#: complemented by ``n_i``; ``root`` is the library root complemented by
#: ``out``).  A plan is a pure function of its table, like the NPN caches
#: of :mod:`repro.netlist.opt.cut`, so every caller may share it.
_PLANS: dict[int, tuple] = {}


def _plan(tt: int) -> tuple:
    """Decode (once per truth table) what :func:`_sweep` needs of ``tt``."""
    canon = npn_canon(tt)[0]
    lib_root, nodes = NPN4_LIBRARY[canon]
    read = {lib_root >> 1}
    read.update(lit >> 1 for pair in nodes for lit in pair)
    used = [i for i in range(4) if i + 1 in read]
    pick = itemgetter(*used) if used else (lambda inputs: ())
    transforms = tuple(
        (*perm, neg & 1, (neg >> 1) & 1, (neg >> 2) & 1, (neg >> 3) & 1,
         out, lib_root ^ out)
        for perm, neg, out in npn_transforms(tt))
    plan = _PLANS[tt] = (canon, nodes, pick, transforms)
    return plan


def _probe_key(canon: int, root: int, inputs: tuple,
               pick: Callable[[tuple], object]) -> tuple:
    """Memo key of a probe: the class, the root literal and the literals
    of the inputs the structure reads (the others cannot change it)."""
    return canon, root, pick(inputs)


def _sweep(aig: AIG, cut_limit: int, stats: RewriteStats,
           zero_cost: bool = False) -> AIG:
    """One topological rewrite-and-rebuild sweep; returns the new AIG
    (its table may hold garbage — callers compact via :func:`_copy_live`)."""
    live = sorted(aig.cone(aig.and_roots()))
    refs: dict[int, int] = {nid: 0 for nid in live}
    refs[0] = 0
    kinds = aig._kind
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    for nid in live:
        if kinds[nid] == _AND:
            refs[fanin0[nid] >> 1] += 1
            refs[fanin1[nid] >> 1] += 1
    for lit in aig.and_roots():
        refs[lit >> 1] += 1

    cuts, truths = enumerate_cut_truths(aig, cut_limit, live)
    new = AIG(aig.name)
    table = new._table
    levels: dict[int, int] = {0: 0}
    lit_map: dict[int, int] = {0: 0}
    for nid in aig.inputs:
        lit = new.add_input(aig.node_name(nid))
        lit_map[nid] = lit
        levels[lit >> 1] = 0
    for nid in aig.latches:
        lit = new.add_latch(aig.node_name(nid))
        lit_map[nid] = lit
        levels[lit >> 1] = 0

    # The probe helpers are looked up once per sweep, through the module
    # namespace, so a replaced helper is seen by every later sweep.
    probe_structure = _probe_structure
    probe_key = _probe_key
    plans = _PLANS
    cuts_evaluated = probes = memo_hits = fanin_skips = 0
    replaced: set[int] = set()
    # Functional cut-sweep table: (NPN canon, concrete literals feeding
    # the canonical inputs) -> committed literal computing the canonical
    # function of those literals.  A hit means a functionally identical
    # cone (possibly structured completely differently) already exists in
    # the output graph, so the node merges into it at zero cost.
    func_map: dict[tuple[int, tuple[int, int, int, int]], int] = {}
    for nid in live:
        if kinds[nid] != _AND:
            continue
        f0 = fanin0[nid]
        f1 = fanin1[nid]
        m0 = lit_map[f0 >> 1] ^ (f0 & 1)
        m1 = lit_map[f1 >> 1] ^ (f1 & 1)
        # Baseline: rebuild the node as-is — aig_and's folding, mirrored
        # without inserting anything.
        if m0 == m1:
            d_lit = m0
        elif m0 == (m1 ^ 1) or m0 == 0 or m1 == 0:
            d_lit = 0
        elif m0 == 1:
            d_lit = m1
        elif m1 == 1:
            d_lit = m0
        else:
            d_lit = table.get((m0, m1) if m0 < m1 else (m1, m0))
        if d_lit is None:
            d_gain = 0
            la = levels.get(m0 >> 1, 0)
            lb = levels.get(m1 >> 1, 0)
            d_level = 1 + (la if la >= lb else lb)
        else:
            d_gain = 1
            d_level = levels.get(d_lit >> 1, 0)
        # The cut made of the node's own fanins carries the AND itself,
        # whose probe can only tie the baseline: without zero-cost
        # commits a tie is never taken, so that probe is skipped.
        n0 = f0 >> 1
        n1 = f1 >> 1
        fanin_cut = None if zero_cost else \
            ((n0, n1) if n0 < n1 else (n1, n0))
        # Per-node probe memo (the output graph does not change until
        # the node commits): key -> (cost, level, real) of a completed
        # probe, which answers any budget, and key -> the largest budget
        # a probe was pruned under, which answers every budget up to it.
        done: dict[tuple, tuple[int, int, Optional[int]]] = {}
        pruned: dict[tuple, int] = {}

        best = None
        best_gain = d_gain
        cut_keys: list[tuple[tuple[int, tuple[int, int, int, int]], int]] = []
        node_cuts = cuts[nid]
        node_truths = truths[nid]
        for index in range(1, len(node_cuts)):
            cut = node_cuts[index]
            if len(cut) < 2:
                continue
            cuts_evaluated += 1
            saved = _mffc_size(aig, refs, nid, cut, replaced)
            tt = node_truths[index]
            plan = plans.get(tt)
            if plan is None:
                plan = _plan(tt)
            canon, lib_nodes, pick, transforms = plan
            leaf_lits = [lit_map[leaf] for leaf in cut]
            leaf_lits += [0] * (4 - len(leaf_lits))
            skip_probe = cut == fanin_cut
            # Every cached transform instantiates the class structure
            # differently over the same leaves; each is probed for
            # sharing with logic the rebuild has already committed, and
            # each yields a functional key for the cut-sweep table.
            for p0, p1, p2, p3, g0, g1, g2, g3, out, root in transforms:
                inputs = (leaf_lits[p0] ^ g0, leaf_lits[p1] ^ g1,
                          leaf_lits[p2] ^ g2, leaf_lits[p3] ^ g3)
                func_key = (canon, inputs)
                cut_keys.append((func_key, out))
                hit = func_map.get(func_key)
                if hit is not None:
                    # A committed cone already computes this function of
                    # these exact literals: merge for free, the whole
                    # MFFC is the gain.
                    gain = saved
                    level = levels.get(hit >> 1, 0)
                    real = hit ^ out
                else:
                    if skip_probe:
                        fanin_skips += 1
                        continue
                    # A structure costing more than the budget could
                    # beat neither the baseline nor the best candidate.
                    budget = saved - best_gain
                    if budget < 0:
                        continue
                    key = probe_key(canon, root, inputs, pick)
                    probe = done.get(key)
                    if probe is not None:
                        memo_hits += 1
                        if probe[0] > budget:
                            continue
                    else:
                        limit = pruned.get(key)
                        if limit is not None and budget <= limit:
                            memo_hits += 1
                            continue
                        probes += 1
                        probe = probe_structure(new, levels, root, lib_nodes,
                                                [0, *inputs], budget)
                        if probe is None:
                            pruned[key] = budget
                            continue
                        done[key] = probe
                    cost, level, real = probe
                    gain = saved - cost
                if gain < d_gain or (gain == d_gain and level > d_level) or \
                        (gain == d_gain and level == d_level
                         and not zero_cost):
                    continue
                if best is None or gain > best[0] or \
                        (gain == best[0] and level < best[1]):
                    best = (gain, level, cut, root, lib_nodes, inputs,
                            real)
                    best_gain = gain

        if best is None:
            if d_lit is None:
                d_lit = new.aig_and(m0, m1)
                levels[d_lit >> 1] = d_level
            lit_map[nid] = d_lit
        else:
            gain, level, cut, root, nodes, inputs, real = best
            stats.replacements += 1
            if gain > d_gain:
                stats.nodes_saved += gain - d_gain
            else:
                stats.zero_gain_depth += 1
            _deref_cone(aig, refs, nid, cut, replaced)
            for leaf in cut:
                refs[leaf] += 1
            replaced.add(nid)
            if real is not None:
                lit_map[nid] = real
            else:
                lit_map[nid] = _build_structure(new, levels, root, nodes,
                                                [0, *inputs])
        # Register every evaluated cut's function of the final literal in
        # the sweep table so later nodes can merge into this cone.
        final = lit_map[nid]
        for func_key, out in cut_keys:
            func_map.setdefault(func_key, final ^ out)

    stats.cuts_evaluated += cuts_evaluated
    work = {"probes": probes, "probe_memo_hits": memo_hits,
            "fanin_probes_skipped": fanin_skips}
    for name, value in work.items():
        setattr(stats, name, getattr(stats, name) + value)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.absorb("rewrite", work)
    for name, lit in aig.outputs:
        new.add_output(name, lit_map[lit >> 1] ^ (lit & 1))
    for qnid in aig.latches:
        if qnid in aig._next:
            nxt = aig._next[qnid]
            new.set_next(lit_map[qnid], lit_map[nxt >> 1] ^ (nxt & 1))
    return new


def _copy_live(aig: AIG) -> AIG:
    """Compact: copy only the live cone into a fresh AIG (drops the
    garbage that probing-then-rebuilding leaves in the unique table)."""
    out = AIG(aig.name)
    lit_map = {0: 0}
    for nid in aig.inputs:
        lit_map[nid] = out.add_input(aig.node_name(nid))
    for nid in aig.latches:
        lit_map[nid] = out.add_latch(aig.node_name(nid))
    for nid in sorted(aig.cone(aig.and_roots())):
        if aig.is_and(nid):
            f0, f1 = aig.fanins(nid)
            lit_map[nid] = out.aig_and(lit_map[f0 >> 1] ^ (f0 & 1),
                                       lit_map[f1 >> 1] ^ (f1 & 1))
    for name, lit in aig.outputs:
        out.add_output(name, lit_map[lit >> 1] ^ (lit & 1))
    for qnid in aig.latches:
        if qnid in aig._next:
            nxt = aig._next[qnid]
            out.set_next(lit_map[qnid], lit_map[nxt >> 1] ^ (nxt & 1))
    return out


def rewrite_aig(aig: AIG, cut_limit: int = 8, max_sweeps: int = 8,
                stats: Optional[RewriteStats] = None,
                zero_cost: bool = False) -> AIG:
    """Run rewrite sweeps to a fixpoint and return the compacted result.

    Each sweep rebuilds the live cone once (see :func:`_sweep`); sweeps
    repeat while the live AND count strictly improves, up to
    ``max_sweeps``.  Purely structural — no SAT calls — but still the
    most expensive stock pass: on the flow designs it takes most of
    :func:`repro.netlist.opt.optimize`.  Within a node, probes that
    repeat an earlier one are answered from a memo, and the fanin-cut
    probe, which can only tie the baseline, is skipped; the ``rewrite``
    span and the ``rewrite.probes`` / ``rewrite.probe_memo_hits`` /
    ``rewrite.fanin_probes_skipped`` tracer counters report that work
    (it is kept on ``stats`` but out of :meth:`RewriteStats.to_dict`,
    since it measures effort, not the result).  ``zero_cost=True``
    additionally commits replacements that change neither size nor
    level, diversifying structure (useful ahead of mapping) at the cost
    of extra churn per sweep.
    """
    tracer = get_tracer()
    if stats is None:
        stats = RewriteStats()
    stats.ands_before = len(_live_ands(aig))
    current = aig
    count = stats.ands_before
    work = ("probes", "probe_memo_hits", "fanin_probes_skipped")
    before = {name: getattr(stats, name) for name in work}
    with tracer.span("rewrite", ands_before=count) as span:
        for _ in range(max_sweeps):
            stats.sweeps += 1
            with tracer.span("rewrite.sweep"):
                swept = _copy_live(_sweep(current, cut_limit, stats,
                                          zero_cost=zero_cost))
            new_count = len(_live_ands(swept))
            if new_count >= count:
                if new_count == count:
                    current = swept
                break
            current, count = swept, new_count
        span.set(**{name: getattr(stats, name) - before[name]
                    for name in work})
    stats.ands_after = count
    return current


class RewritePass(Pass):
    """DAG-aware 4-cut rewriting against the precomputed NPN library.

    Lowers to the AIG, runs :func:`rewrite_aig` to a fixpoint, raises
    back.  Like the other AIG round-trip passes it carries a never-worse
    guard: if rewriting (plus the netlist round trip) fails to improve
    the gate count or depth, the input netlist is returned unchanged.
    """

    name = "rewrite"

    def __init__(self, cut_limit: int = 8, max_sweeps: int = 8):
        self.cut_limit = cut_limit
        self.max_sweeps = max_sweeps
        self.rewrite_stats: Optional[RewriteStats] = None

    def stats_dict(self) -> Optional[dict]:
        if self.rewrite_stats is None:
            return None
        return self.rewrite_stats.to_dict()

    def run(self, netlist: Netlist) -> Netlist:
        self.rewrite_stats = RewriteStats()
        rewritten = rewrite_aig(from_netlist(netlist),
                                cut_limit=self.cut_limit,
                                max_sweeps=self.max_sweeps,
                                stats=self.rewrite_stats)
        result = to_netlist(rewritten)
        if result.num_gates > netlist.num_gates or \
                result.logic_levels() > netlist.logic_levels():
            return netlist
        return result
