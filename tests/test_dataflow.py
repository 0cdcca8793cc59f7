"""Tests for the hierarchy-wide dataflow graph (repro.verilog.dataflow):
fan-in and fan-out sets checked against hand-computed answers, and the
instance scoring of ALICE's module-filtering step (Algorithm 1)."""

import os
import subprocess
import sys

import repro
from repro.verilog import DataflowGraph, DesignHierarchy, parse

# u_add is named, u_inv positional and fed by u_add; u_bb is a black box
# (no module definition), connected conservatively in both directions, so
# it also reaches o3 through the net r it shares.
DESIGN = """
module adder(input [3:0] a, input [3:0] b, output [3:0] s);
  assign s = a + b;
endmodule

module inv(input [3:0] x, output [3:0] y);
  assign y = ~x;
endmodule

module top(input [3:0] p, input [3:0] q, input [3:0] r,
           output [3:0] o1, output [3:0] o2, output [3:0] o3);
  wire [3:0] t;
  adder u_add (.a(p), .b(q), .s(t));
  inv u_inv (t, o1);
  blackbox u_bb (.i(r), .o(o2));
  assign o3 = r;
endmodule
"""

# An inout port joins the parent net, the child port and the instance in
# both directions.
INOUT = """
module pad(inout io, input en, output st);
  assign st = en;
endmodule

module top(input e, inout bus, output s_out, output other);
  pad u_pad (.io(bus), .en(e), .st(s_out));
  assign other = bus;
endmodule
"""

# Two levels: a full adder built from two half adders, with a register.
NESTED = """
module half(input x, input y, output s, output c);
  assign s = x ^ y;
  assign c = x & y;
endmodule

module full(input a, input b, input ci, output s, output co);
  wire s1, c1, c2;
  half h0 (.x(a), .y(b), .s(s1), .c(c1));
  half h1 (s1, ci, s, c2);
  assign co = c1 | c2;
endmodule

module top(input clk, input a, input b, input ci, input d,
           output sum, output carry, output reg q);
  full f (.a(a), .b(b), .ci(ci), .s(sum), .co(carry));
  always @(posedge clk) q <= q ^ d;
endmodule
"""


def _graph(source: str) -> DataflowGraph:
    return DataflowGraph(DesignHierarchy(parse(source), top="top"))


def test_named_positional_and_black_box_fanin():
    graph = _graph(DESIGN)
    assert graph.instance_nodes() == {"top.u_add", "top.u_inv", "top.u_bb"}
    assert graph.instances_affecting_output("o1") == {"top.u_add",
                                                      "top.u_inv"}
    assert graph.instances_affecting_output("o2") == {"top.u_bb"}
    assert graph.instances_affecting_output("o3") == {"top.u_bb"}
    assert graph.signal_fanin("top", "o1") == {
        ("top.u_inv", "y"), ("top.u_inv", "x"), ("top", "t"),
        ("top.u_add", "s"), ("top.u_add", "a"), ("top.u_add", "b"),
        ("top", "p"), ("top", "q"),
    }
    # The black box feeds back into its own input net and output net.
    assert graph.signal_fanin("top", "o3") == {("top", "r"), ("top", "o2")}


def test_fanout_of_instances():
    graph = _graph(DESIGN)
    outputs = ["o1", "o2", "o3"]
    assert graph.outputs_affected_by_instance("top.u_add", outputs) == {"o1"}
    assert graph.outputs_affected_by_instance("top.u_inv", outputs) == {"o1"}
    assert graph.outputs_affected_by_instance("top.u_bb", outputs) == {
        "o2", "o3"}
    assert graph.outputs_affected_by_instance("top.nope", outputs) == set()


def test_unknown_signal_has_empty_fanin():
    graph = _graph(DESIGN)
    assert graph.instances_affecting_output("nope") == set()
    assert graph.signal_fanin("top", "nope") == set()


def test_inout_port_connects_both_ways():
    graph = _graph(INOUT)
    assert graph.instances_affecting_output("other") == {"top.u_pad"}
    assert graph.signal_fanin("top", "other") == {
        ("top", "bus"), ("top.u_pad", "io"), ("top.u_pad", "en"),
        ("top", "e"),
    }
    assert graph.outputs_affected_by_instance(
        "top.u_pad", ["s_out", "other"]) == {"s_out", "other"}


def test_nested_hierarchy_and_register_feedback():
    graph = _graph(NESTED)
    assert graph.instance_nodes() == {"top.f", "top.f.h0", "top.f.h1"}
    for output in ("sum", "carry"):
        assert graph.instances_affecting_output(output) == {
            "top.f", "top.f.h0", "top.f.h1"}
    assert graph.instances_affecting_output("q") == set()
    # q feeds itself through the register; a signal is never its own
    # fan-in.
    assert graph.signal_fanin("top", "q") == {("top", "d")}


def test_score_instances_is_algorithm_1():
    """Each instance scores one point per selected output in its cone."""
    graph = _graph(DESIGN)
    assert graph.score_instances(["o1", "o2", "o3"]) == {
        "top.u_add": 1, "top.u_inv": 1, "top.u_bb": 2}
    assert graph.score_instances(["o1"]) == {
        "top.u_add": 1, "top.u_inv": 1, "top.u_bb": 0}
    assert graph.score_instances([]) == {
        "top.u_add": 0, "top.u_inv": 0, "top.u_bb": 0}


def test_import_pulls_in_no_networkx():
    code = "import sys, repro; assert 'networkx' not in sys.modules"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
