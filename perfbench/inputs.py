"""Seeded input generators owned by the benchmark.

Nothing here is imported from ``scripts/bench.py`` or the tests, so edits
to those cannot change a workload.  Every generator takes a
:class:`random.Random` seeded from ``--seed``; the program under test only
ever sees the Verilog text they return.

Draws are *stratified*: the seed picks widths, wiring, bug sites and
constants inside fixed strata, so every seed yields the same mix of job
kinds (and roughly the same amount of work) while no two seeds yield the
same inputs.  That keeps run-to-run spread down without fixing the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _bits(width: int) -> str:
    return f"[{width - 1}:0]"


# -- leaf modules -------------------------------------------------------------
# Each returns ``(module_name, text)``.  The module name encodes every
# parameter, so one design can hold several widths at once.


def alu_module(width: int) -> tuple[str, str]:
    name = f"alu_w{width}"
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               input [2:0] op, output reg {_bits(width)} y);
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = a - b;
      3'd2: y = (a + b) + 1;
      3'd3: y = a & b;
      3'd4: y = a | b;
      3'd5: y = a ^ b;
      3'd6: y = (a < b) ? a : b;
      default: y = b - a;
    endcase
  end
endmodule
"""
    return name, text


def alu_alt_module(width: int, bug_op: int = -1) -> tuple[str, str]:
    """The same ALU written another way: subtraction as ``a + ~b + 1``,
    the comparison from the borrow of a widened subtraction.  ``bug_op``
    in 0..7 corrupts that operation's result by one bit."""
    name = f"alu_alt_w{width}"
    ops = [
        "a + b",
        "a + ~b + 1",
        "a + b + 1",
        "~(~a | ~b)",
        "~(~a & ~b)",
        "(a | b) & ~(a & b)",
        "diff[{w}] ? a : b".format(w=width),
        "b + ~a + 1",
    ]
    if 0 <= bug_op < len(ops):
        ops[bug_op] = f"({ops[bug_op]}) ^ {width}'d1"
    arms = "\n".join(f"      3'd{i}: y = {expr};" for i, expr in
                     enumerate(ops[:-1]))
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               input [2:0] op, output reg {_bits(width)} y);
  wire {_bits(width + 1)} diff;
  assign diff = {{1'b0, a}} - {{1'b0, b}};
  always @(*) begin
    case (op)
{arms}
      default: y = {ops[-1]};
    endcase
  end
endmodule
"""
    return name, text


def adder_module(width: int) -> tuple[str, str]:
    name = f"adder_w{width}"
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b, input cin,
               output {_bits(width + 1)} sum);
  assign sum = a + b + cin;
endmodule
"""
    return name, text


def ripple_adder_module(width: int, mask: int = 0,
                        bug_bit: int = -1) -> tuple[str, str]:
    """A bit-serial loop adder of ``(a ^ mask) + b``; its carry is the
    three-way majority, which the frontend's ``+`` lowering does not
    produce, so the miter against ``+`` is not closed by hashing.
    ``bug_bit`` flips that sum bit's carry-in term."""
    name = f"ripple_w{width}_m{mask}"
    flip = f" ^ (i == {bug_bit})" if bug_bit >= 0 else ""
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               output reg {_bits(width + 1)} sum);
  wire {_bits(width)} m;
  reg c;
  reg x;
  integer i;
  assign m = {width}'d{mask};
  always @(*) begin
    c = 0;
    for (i = 0; i < {width}; i = i + 1) begin
      x = a[i] ^ m[i];
      sum[i] = x ^ b[i] ^ (c{flip});
      c = (x & b[i]) | (x & c) | (b[i] & c);
    end
    sum[{width}] = c;
  end
endmodule
"""
    return name, text


def plus_adder_module(width: int, mask: int = 0) -> tuple[str, str]:
    name = f"plus_w{width}_m{mask}"
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               output {_bits(width + 1)} sum);
  assign sum = (a ^ {width}'d{mask}) + b;
endmodule
"""
    return name, text


def muxtree_module(width: int) -> tuple[str, str]:
    name = f"muxtree_w{width}"
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               input {_bits(width)} c, input {_bits(width)} d,
               input [1:0] sel, output reg {_bits(width)} y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule
"""
    return name, text


def counter_module(width: int) -> tuple[str, str]:
    name = f"counter_w{width}"
    text = f"""
module {name} (input clk, input rst, input en, input do_load,
               input {_bits(width)} load, output reg {_bits(width)} q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (do_load) q <= load;
    else if (en) q <= q + 1;
  end
endmodule
"""
    return name, text


def _mult_operands(width: int, mask: int) -> tuple[str, str]:
    """Operand expressions ``a ^ mask[W-1:0]`` and ``b ^ mask[2W-1:W]``
    (plain ``a`` / ``b`` for a zero mask half)."""
    low, high = mask & ((1 << width) - 1), mask >> width
    a = f"(a ^ {width}'d{low})" if low else "a"
    b = f"(b ^ {width}'d{high})" if high else "b"
    return a, b


def shift_add_mult_module(width: int, swap: bool = False,
                          bug: tuple[int, int, int] | None = None,
                          mask: int = 0) -> tuple[str, str]:
    """``a * b`` with operands masked as in :func:`_mult_operands` (the
    frontend lowers ``*`` to shift-and-add).  ``bug`` = ``(i, j, k)`` XORs
    ``a[i] & b[j]`` into product bit ``k``."""
    a, b = _mult_operands(width, mask)
    tag = "ba" if swap else "ab"
    expr = f"{b} * {a}" if swap else f"{a} * {b}"
    name = f"mul_{tag}_w{width}_m{mask}"
    if bug is not None:
        i, j, k = bug
        name += f"_bug{i}_{j}_{k}"
        expr = (f"({expr}) ^ ({{{2 * width - 1}'d0, a[{i}] & b[{j}]}} "
                f"<< {k})")
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               output {_bits(2 * width)} p);
  assign p = {expr};
endmodule
"""
    return name, text


def array_mult_module(width: int, mask: int = 0) -> tuple[str, str]:
    """A carry-save array multiplier of the masked operands: each
    partial-product row enters a row of full adders whose carries are kept
    apart until one final add.  Structurally unlike shift-and-add, so its
    miter against ``*`` needs the solver."""
    name = f"mul_array_w{width}_m{mask}"
    wide = 2 * width
    a, b = _mult_operands(width, mask)
    text = f"""
module {name} (input {_bits(width)} a, input {_bits(width)} b,
               output reg {_bits(wide)} p);
  wire {_bits(width)} am;
  wire {_bits(width)} bm;
  reg {_bits(wide)} pp;
  reg {_bits(wide)} sum;
  reg {_bits(wide)} carry;
  reg {_bits(wide)} next;
  integer r;
  assign am = {a};
  assign bm = {b};
  always @(*) begin
    sum = 0;
    carry = 0;
    for (r = 0; r < {width}; r = r + 1) begin
      pp = bm[r] ? ({{{width}'d0, am}} << r) : 0;
      next = sum ^ pp ^ carry;
      carry = ((sum & pp) | (carry & (sum ^ pp))) << 1;
      sum = next;
    end
    p = sum + carry;
  end
endmodule
"""
    return name, text


# -- flow: hierarchical designs -------------------------------------------------

#: Per-kind width ranges (inclusive), dealt from a bag per kind.  Narrow
#: on purpose: the amount of work per design should not swing with the
#: seed.
FLOW_WIDTHS = {
    "alu": (4, 6),
    "adder": (6, 10),
    "muxtree": (4, 8),
    "counter": (4, 8),
    "multiplier": (2, 3),
}

#: The flow strata, cycled in blocks of nine: (holds an ALU, instance
#: count).  Per block: three non-ALU designs with 3 instances, three with
#: 5, two ALU designs with 3 instances and one with 5, so a third hold an
#: ALU and designs hold 3-5 instances.  The mix is assumed, and it was
#: chosen for steady percentiles: an ALU instance costs about as much as
#: the rest of a design, so costs rank roughly in these four groups
#: (63 designs: 21 / 21 / 14 / 7), and the median (rank 32) and the tail
#: (rank 53, ten beyond it) each fall inside a group, not on the edge
#: between two groups of different cost, where they swung with the seed.
FLOW_STRATA = ((False, 3), (False, 5), (True, 3),
               (False, 3), (False, 5), (True, 3),
               (False, 3), (False, 5), (True, 5))

#: Leaf kinds other than the ALU, dealt from a bag holding one of each.
FLOW_OTHER_KINDS = ("adder", "muxtree", "counter", "multiplier")


@dataclass
class FlowDesign:
    """One hierarchical design of the ``flow`` workload."""

    name: str
    source: str
    instances: list[tuple[str, str, int]]   # (instance, kind, width)
    #: Word width of every top-level input.
    input_widths: dict[str, int]
    outputs: list[str]

    @property
    def has_alu(self) -> bool:
        return any(kind == "alu" for _, kind, _ in self.instances)


def _leaf(kind: str, width: int) -> tuple[str, str, list[str], int]:
    """(module, text, data-input ports, output width) of one flow leaf."""
    if kind == "alu":
        name, text = alu_module(width)
        return name, text, ["a", "b"], width
    if kind == "adder":
        name, text = adder_module(width)
        return name, text, ["a", "b"], width + 1
    if kind == "muxtree":
        name, text = muxtree_module(width)
        return name, text, ["a", "b", "c", "d"], width
    if kind == "counter":
        name, text = counter_module(width)
        return name, text, ["load"], width
    if kind == "multiplier":
        name, text = shift_add_mult_module(width)
        return name, text, ["a", "b"], 2 * width
    raise ValueError(f"unknown flow kind {kind!r}")


_CONTROL_PORTS = {
    "alu": {"op": "s[2:0]"},
    "adder": {"cin": "s[0]"},
    "muxtree": {"sel": "s[2:1]"},
    "counter": {"clk": "clk", "rst": "rst", "en": "s[0]", "do_load": "s[1]"},
    "multiplier": {},
}

_OUTPUT_PORT = {"alu": "y", "adder": "sum", "muxtree": "y", "counter": "q",
                "multiplier": "p"}


def flow_design(rng: random.Random, index: int, kinds: list[str],
                widths: list[int]) -> FlowDesign:
    """A top module instantiating ``kinds`` (in order) at ``widths``.

    Data inputs come from seeded slices of the top-level buses (``x`` for
    even-numbered operands, ``y`` for odd ones) or, for about half the
    operands, from an earlier instance's output (each earlier instance at
    most once per instance), so instances share logic across the
    hierarchy.  So the two operands of an adder, ALU or multiplier are
    never the same signal: an ALU fed ``a == b`` folds away at about half
    the cost of the others, which made a run's percentiles swing with the
    seed.  Every instance drives its own top-level output and one
    extra output XORs two of them, which gives the module filter
    (Algorithm 1) instances that feed several outputs.
    """
    bus = max(max(widths), 8) + 2
    leaves: dict[str, str] = {}
    lines: list[str] = []
    instances: list[tuple[str, str, int]] = []
    out_widths: list[int] = []
    for j, (kind, width) in enumerate(zip(kinds, widths)):
        module, text, data_ports, out_width = _leaf(kind, width)
        leaves[module] = text
        conns = dict(_CONTROL_PORTS[kind])
        taken: set[int] = set()     # donors this instance already reads
        for p, port in enumerate(data_ports):
            donors = [k for k in range(j)
                      if out_widths[k] >= width and k not in taken]
            if donors and rng.random() < 0.5:
                k = rng.choice(donors)
                taken.add(k)
                lo = rng.randint(0, out_widths[k] - width)
                conns[port] = f"w{k}[{lo + width - 1}:{lo}]"
            else:
                lo = rng.randint(0, bus - width)
                conns[port] = f"{'xy'[p % 2]}[{lo + width - 1}:{lo}]"
        inst = f"u{j}_{kind}"
        instances.append((inst, kind, width))
        out_widths.append(out_width)
        lines.append(f"  wire {_bits(out_width)} w{j};")
        pins = ", ".join(f".{p}({e})" for p, e in conns.items())
        lines.append(f"  {module} {inst} ({pins}, "
                     f".{_OUTPUT_PORT[kind]}(w{j}));")
        lines.append(f"  assign o{j} = w{j};")
    a, b = rng.sample(range(len(kinds)), 2)
    zw = min(out_widths[a], out_widths[b])
    lines.append(f"  assign z = w{a}[{zw - 1}:0] ^ w{b}[{zw - 1}:0];")
    top = f"flow{index}"
    ports = [f"input {_bits(bus)} x", f"input {_bits(bus)} y",
             "input [2:0] s"]
    input_widths = {"x": bus, "y": bus, "s": 3}
    if "counter" in kinds:
        ports = ["input clk", "input rst"] + ports
        input_widths.update(clk=1, rst=1)
    outputs = [f"o{j}" for j in range(len(kinds))] + ["z"]
    ports += [f"output {_bits(w)} o{j}" for j, w in enumerate(out_widths)]
    ports.append(f"output {_bits(zw)} z")
    body = "\n".join(lines)
    top_text = (f"module {top} (\n  " + ",\n  ".join(ports)
                + f"\n);\n{body}\nendmodule\n")
    source = "".join(leaves.values()) + "\n" + top_text
    return FlowDesign(name=top, source=source, instances=instances,
                      input_widths=input_widths, outputs=outputs)


def stimulus(rng: random.Random, widths: dict[str, int],
             cycles: int) -> list[dict[str, int]]:
    """``cycles`` random word-level input vectors over ``widths``."""
    return [{name: rng.getrandbits(width) for name, width in widths.items()}
            for _ in range(cycles)]


class Bag:
    """Seeded draws from a fixed multiset, refilled (and reshuffled)
    whenever it runs empty, so any stretch of draws stays balanced."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def flow_sequence(seed: int, count: int) -> list[FlowDesign]:
    """The first ``count`` designs of the seeded ``flow`` sequence.

    Each stratum deals its leaf kinds and each kind's widths from bags of
    its own, so every stratum, not only the whole run, gets a balanced
    share of each kind and width.
    """
    rng = random.Random(f"flow:{seed}")
    kinds_bags = {stratum: Bag(rng, FLOW_OTHER_KINDS)
                  for stratum in FLOW_STRATA}
    width_bags = {(stratum, kind): Bag(rng, range(lo, hi + 1))
                  for stratum in FLOW_STRATA
                  for kind, (lo, hi) in FLOW_WIDTHS.items()}
    designs = []
    for i in range(count):
        stratum = FLOW_STRATA[i % len(FLOW_STRATA)]
        with_alu, instances = stratum
        kinds = ["alu"] if with_alu else []
        while len(kinds) < instances:
            kinds.append(kinds_bags[stratum].draw())
        rng.shuffle(kinds)
        widths = [width_bags[stratum, kind].draw() for kind in kinds]
        designs.append(flow_design(rng, i, kinds, widths))
    return designs


# -- verify: cross-implementation miters ---------------------------------------


@dataclass
class Miter:
    """One ``verify`` job: two sources whose equivalence is known."""

    label: str
    before: str
    after: str
    equivalent: bool
    certify: bool
    tops: tuple[str, str]       # top module of before / after


def _mult_miter(rng: random.Random, width: int, bug: bool,
               certify: bool, order: str) -> Miter:
    """``order``: "ab" / "ba" fixes the operand order of ``*``; "seeded"
    draws it; "masked" draws it and a nonzero operand mask."""
    swap = order == "ba" or (order in ("seeded", "masked")
                             and rng.random() < 0.5)
    mask = rng.randrange(1, 1 << (2 * width)) if order == "masked" else 0
    site = None
    if bug:
        site = (rng.randrange(width), rng.randrange(width),
                rng.randrange(2 * width))
    before_name, before = array_mult_module(width, mask)
    after_name, after = shift_add_mult_module(width, swap, site, mask)
    return Miter(label=f"mult_w{width}" + ("_bug" if bug else ""),
                 before=before, after=after, equivalent=not bug,
                 certify=certify, tops=(before_name, after_name))


def _adder_miter(rng: random.Random, bug: bool, certify: bool) -> Miter:
    width = 12
    mask = rng.getrandbits(width)
    bug_bit = rng.randrange(1, width) if bug else -1
    before_name, before = ripple_adder_module(width, mask, bug_bit)
    after_name, after = plus_adder_module(width, mask)
    return Miter(label="adder" + ("_bug" if bug else ""),
                 before=before, after=after, equivalent=not bug,
                 certify=certify, tops=(before_name, after_name))


def _alu_miter(rng: random.Random, bug: bool, certify: bool) -> Miter:
    width = 8
    before_name, before = alu_module(width)
    after_name, after = alu_alt_module(width,
                                       rng.randrange(8) if bug else -1)
    return Miter(label="alu" + ("_bug" if bug else ""),
                 before=before, after=after, equivalent=not bug,
                 certify=certify, tops=(before_name, after_name))


#: The ``verify`` strata: (kind, multiplier width, operand order of ``*``,
#: certify, injected bug).  Fifteen jobs: seven UNSAT proofs, three of
#: them certified, and eight bug twins the simulation check refutes.  The
#: seed draws bug sites, masks and some operand orders; widths are fixed,
#: because the solver's effort swings with them (and with the operand
#: order at W=5).  W=6 appears only as a bug twin: its UNSAT proof
#: (3-6 s) would be most of a pass, leaving two or three passes per run,
#: too few for a steady throughput or tail.  Three W=5 proofs per pass
#: keep the eleven slowest jobs of a run (the tail) among them.  The three
#: ALU bug twins are there for a steady median: at about 25 ms they are
#: slower than the other refutations and the W=3 proof (at most about
#: 15 ms) and faster than the other proofs, so they fill ranks 7-9 of 15
#: and the run's median falls inside that one kind, not on the boundary
#: between two kinds of different cost, where it swung from run to run.
#: So ``job_p50_s`` measures an ALU refutation.
VERIFY_STRATA = (
    ("mult", 3, "seeded", False, False),
    ("mult", 4, "seeded", True, False),
    ("mult", 5, "ab", False, False),
    ("mult", 5, "ba", False, False),
    ("mult", 5, "masked", False, False),
    ("adder", 0, "", True, False),
    ("alu", 0, "", True, False),
    ("mult", 3, "seeded", False, True),
    ("mult", 4, "seeded", False, True),
    ("mult", 5, "seeded", False, True),
    ("mult", 6, "seeded", False, True),
    ("adder", 0, "", False, True),
    ("alu", 0, "", False, True),
    ("alu", 0, "", False, True),
    ("alu", 0, "", False, True),
)


def verify_batch(seed: int) -> list[Miter]:
    """One pass of the ``verify`` workload, in stratum order."""
    rng = random.Random(f"verify:{seed}")
    miters = []
    for kind, width, order, certify, bug in VERIFY_STRATA:
        if kind == "mult":
            miters.append(_mult_miter(rng, width, bug, certify, order))
        elif kind == "adder":
            miters.append(_adder_miter(rng, bug, certify))
        else:
            miters.append(_alu_miter(rng, bug, certify))
    return miters


# -- service: a stream of distinct verification requests ------------------------


@dataclass
class Request:
    """One distinct pair for the ``service`` workload."""

    label: str
    before: str
    after: str
    equivalent: bool


def service_pairs(seed: int | str, count: int) -> list[Request]:
    """``count`` pairs with pairwise-distinct structure (so each is a
    cache miss the first time), dealt in seeded blocks of four kinds:
    ripple adder vs ``+`` (W=8-12), array multiplier vs ``*`` (W=3), and
    an injected-bug twin of each.  Half are equivalent."""
    rng = random.Random(f"service:{seed}")
    seen: set[tuple[str, str]] = set()
    pairs: list[Request] = []
    kinds = Bag(rng, ["adder", "adder_bug", "mult", "mult_bug"])
    while len(pairs) < count:
        kind = kinds.draw()
        bug = kind.endswith("_bug")
        for _ in range(10_000):
            if kind.startswith("adder"):
                width = rng.randint(8, 12)
                mask = rng.getrandbits(width)
                _, before = ripple_adder_module(
                    width, mask, rng.randrange(1, width) if bug else -1)
                _, after = plus_adder_module(width, mask)
            else:
                width = 3
                mask = rng.getrandbits(2 * width)
                site = (rng.randrange(width), rng.randrange(width),
                        rng.randrange(2 * width)) if bug else None
                _, before = array_mult_module(width, mask)
                _, after = shift_add_mult_module(width, rng.random() < 0.5,
                                                 site, mask)
            if (before, after) not in seen:
                break
        else:
            raise ValueError(f"fewer than {count} distinct service pairs")
        seen.add((before, after))
        pairs.append(Request(f"{kind}_w{width}", before, after, not bug))
    return pairs
