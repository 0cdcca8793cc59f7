"""Set-up probe: a fresh interpreter imports ``repro`` and finishes one
small warm-up job of the named workload, then exits.

``run.py`` times whole probe processes (spawn to exit) for ``setup_s``.
Usage: ``python3 perfbench/probe.py flow|verify``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(workload: str) -> int:
    from repro.netlist import elaborate, from_netlist, simulate_sequence
    from repro.netlist.emit import netlist_to_verilog
    from repro.netlist.opt import map_aig, optimize
    from repro.netlist.sat import check_equivalence
    from repro.verilog import DataflowGraph, DesignHierarchy, parse

    import inputs

    if workload == "flow":
        name, text = inputs.adder_module(4)
        tree = parse(text)
        DataflowGraph(DesignHierarchy(tree, name)).score_instances(["sum"])
        netlist = elaborate(tree, top=name)
        optimized = optimize(netlist).netlist
        check_equivalence(netlist, optimized)
        simulate_sequence(optimized, [{"a": 3, "b": 5, "cin": 1}])
        netlist_to_verilog(map_aig(from_netlist(optimized), k=6).to_netlist())
    elif workload == "verify":
        before_name, before = inputs.array_mult_module(3)
        after_name, after = inputs.shift_add_mult_module(3)
        check_equivalence(elaborate(before, top=before_name),
                          elaborate(after, top=after_name), certify=True)
    else:
        print(f"probe: unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
