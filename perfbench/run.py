#!/usr/bin/env python3
"""Benchmark of the repro toolchain on three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload flow|verify|service \\
        --seed N --seconds S --trace 0|1

* ``flow`` — hierarchical designs through the designer's path (parse,
  module filtering, elaborate, optimize, post-opt CEC, compiled
  simulation, 6-LUT mapping, Verilog emission), one closed-loop client.
* ``verify`` — cross-implementation miters (eight of fifteen with an
  injected bug) through ``check_equivalence``, one closed-loop client.
* ``service`` — the verification daemon under an open-loop schedule at a
  fixed ladder of offered rates (see ``service.py``).

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` (``flow`` and ``verify`` scale their times to a
reference host speed, see ``gauge.py``); with ``--trace 1`` it wraps
every public call in a ``repro.obs`` span and reports the per-layer
metrics instead, prints the per-layer self-time table and writes a
Chrome trace under ``.perfbench/``.  Every output is checked outside the
timed region; the last line of stdout is one JSON object (``correct`` /
``attempted`` / ``failed`` / ``metrics``) and the exit code is 1 when any
job failed.
``README.md`` beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch output (traces, the daemon's cache); listed in .gitignore.
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from gauge import Gauge  # noqa: E402
from layers import emit_layer_table, layer_coverage, layer_seconds  # noqa: E402
from stats import median, tail  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Designs per ``flow`` run: seven blocks of the nine strata.  A run times
#: every design once, then starts over until ``--seconds`` have passed; a
#: design's time is the mean of its runs.  So every run has the same
#: designs and the same number of jobs behind its percentiles, however
#: fast the host is, and the QoR totals cover them all.  One pass takes
#: about 25 s on the 2-vCPU VM described in ``gauge.py``.
FLOW_DESIGNS = 63
#: Cycles of compiled simulation per ``flow`` job.
SIM_CYCLES = 32
#: End-to-end QoR metrics only ``flow`` produces.  The other workloads
#: report them as the constant ``NOT_APPLICABLE`` (every end-to-end metric
#: is printed for every workload, and none may read 0).
FLOW_ONLY = ("ands_total", "luts_total", "lut_depth_total")
NOT_APPLICABLE = 1.0


@dataclass
class Report:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {reason}")

    def timings(self, jobs: list[list[tuple[float, float]]],
                setup: list[tuple[float, float]], gauge: Gauge) -> None:
        """``jobs_per_s``, ``job_p50_s``, ``job_tail_s`` and (with
        ``setup``) ``setup_s`` of a closed-loop run, scaled to the
        reference host speed by ``gauge``; the unscaled values are noted.

        ``jobs`` holds the ``(start, end)`` stamps of each job's timed runs
        (a job's time is their mean), ``setup`` those of the set-up probes.
        """
        def summary(scale) -> tuple[dict[str, float], float, int]:
            latencies = [sum((e - s) * scale(s, e) for s, e in runs)
                         / len(runs) for runs in jobs]
            value, percentile, count = tail(latencies)
            values = {"jobs_per_s": len(latencies) / sum(latencies),
                      "job_p50_s": median(latencies),
                      "job_tail_s": value}
            if setup:
                values["setup_s"] = median((e - s) * scale(s, e)
                                           for s, e in setup)
            return values, percentile, count

        scaled, percentile, count = summary(gauge.scale)
        unscaled, _, _ = summary(lambda start, end: 1.0)
        self.metrics.update(scaled)
        self.notes.append(f"job_tail_s is p{percentile:.1f} of {count} jobs")
        self.notes.append("unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in unscaled.items()))
        self.notes.append(gauge.note())

    def tail_metrics(self, latencies: list[float]) -> None:
        """``job_p50_s`` and ``job_tail_s`` (with its percentile noted)."""
        value, percentile, count = tail(latencies)
        self.metrics["job_p50_s"] = median(latencies)
        self.metrics["job_tail_s"] = value
        self.notes.append(f"job_tail_s is p{percentile:.1f} of {count} jobs")


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle(gauge: Gauge) -> float:
    """Before each job: a full garbage collection, so no job pays for
    garbage an earlier one left, then a gauge reading.  Returns the wall
    seconds spent (outside the timed region)."""
    start = time.perf_counter()
    gc.collect()
    gauge.read()
    return time.perf_counter() - start


def probe_setup(workload: str, gauge: Gauge) -> list[tuple[float, float]]:
    """``(start, end)`` of ``SETUP_PROBES`` fresh probe processes, each
    with a gauge reading before and after it."""
    spans = []
    gauge.read()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                        workload], check=True, timeout=120, cwd=ROOT)
        spans.append((start, time.perf_counter()))
        gauge.read()
    return spans


def warm_up(workload: str) -> None:
    """The probe's small job, in this process before the first timed job,
    so lazy set-up (imports, tables built on first use) is not timed."""
    import probe
    probe.main(workload)


def _tracer(trace: bool):
    from repro.obs import NULL_TRACER, Tracer
    return Tracer() if trace else NULL_TRACER


# -- flow ---------------------------------------------------------------------


@dataclass
class FlowOutcome:
    """What one ``flow`` job produced, reduced to what the checks and the
    metrics read, so a run does not hold every job's netlists."""

    scores: dict
    cec: object                 # EquivalenceResult
    simulated: list
    emitted: str
    gates: int                  # elaborated netlist
    passes: list                # PassStats rows of optimize()
    ands: int                   # AIG AND nodes after optimize
    luts: int
    depth: int


def flow_job(design: inputs.FlowDesign, vectors: list, tracer,
             job: str) -> FlowOutcome:
    """One design through the designer's path, one span per public call."""
    from repro.netlist import elaborate, from_netlist, simulate_sequence
    from repro.netlist.emit import netlist_to_verilog
    from repro.netlist.opt import map_aig, optimize
    from repro.netlist.sat import check_equivalence
    from repro.verilog import DataflowGraph, DesignHierarchy, parse

    with tracer.span("flow.job", job=job):
        with tracer.span("verilog.parse", job=job):
            tree = parse(design.source)
        with tracer.span("verilog.dataflow", job=job):
            graph = DataflowGraph(DesignHierarchy(tree, design.name))
            scores = graph.score_instances(design.outputs)
        with tracer.span("netlist.elaborate", job=job):
            elaborated = elaborate(tree, top=design.name)
        with tracer.span("netlist.opt", job=job):
            optimized = optimize(elaborated)
        with tracer.span("netlist.sat", job=job):
            cec = check_equivalence(elaborated, optimized.netlist)
        with tracer.span("netlist.sim", job=job):
            simulated = simulate_sequence(optimized.netlist, vectors)
        with tracer.span("netlist.opt.map", job=job):
            mapped = map_aig(from_netlist(optimized.netlist), k=6)
        with tracer.span("netlist.emit", job=job):
            emitted = netlist_to_verilog(mapped.to_netlist())
    return FlowOutcome(scores, cec, simulated, emitted,
                       elaborated.num_gates, optimized.stats,
                       mapped.stats.ands, mapped.lut_count, mapped.depth)


def check_flow(design: inputs.FlowDesign, vectors: list,
               outcome: FlowOutcome) -> str:
    """Empty when the job's outputs are right, else the first problem.

    The mapped netlist is checked by simulation against the RTL
    interpreter, not by CEC: the solver has no budget, and mapped
    round-trip miters can take minutes.
    """
    from repro.netlist import Interpreter, elaborate, simulate_sequence
    from repro.netlist.sim import input_word_widths

    if not outcome.cec.equivalent:
        return "post-optimization CEC refuted"
    if set(outcome.scores) != {f"{design.name}.{inst}"
                               for inst, _, _ in design.instances}:
        return "module filter scored the wrong instances"
    reference = Interpreter(design.source, top=design.name).run(vectors)
    if outcome.simulated != reference:
        return "compiled simulation disagrees with the interpreter"
    emitted = elaborate(outcome.emitted)
    extra = {name: 0 for name in input_word_widths(emitted)
             if name not in design.input_widths}
    replay = simulate_sequence(emitted, [{**extra, **v} for v in vectors])
    if replay != reference:
        return "emitted LUT netlist disagrees with the interpreter"
    return ""


def same_output(a: FlowOutcome, b: FlowOutcome) -> bool:
    """Whether a repeated job produced what the checked first run did."""
    return (a.cec.equivalent == b.cec.equivalent and a.scores == b.scores
            and a.simulated == b.simulated and a.emitted == b.emitted)


def run_flow(args, report: Report) -> None:
    import random

    gauge = Gauge()
    setup = [] if args.trace else probe_setup("flow", gauge)
    designs = inputs.flow_sequence(args.seed, FLOW_DESIGNS)
    rng = random.Random(f"flow-vectors:{args.seed}")
    stimuli = [inputs.stimulus(rng, d.input_widths, SIM_CYCLES)
               for d in designs]
    tracer = _tracer(args.trace)
    from repro.obs import NULL_TRACER
    warm_up("flow")

    # runs[mode][design index]: (start, end, outcome or exception) of each
    # time the design ran.  Traced runs time every design twice, untraced
    # and traced, in alternating order, so the tracer's overhead is
    # measured on the same designs under the same conditions.
    modes = ("plain", "traced") if args.trace else ("plain",)
    runs = {mode: [[] for _ in designs] for mode in modes}
    untimed = 0.0       # garbage collection and gauge readings
    start = time.perf_counter()
    job = 0
    while job < len(designs) or \
            time.perf_counter() - start - untimed < args.seconds:
        index = job % len(designs)
        for mode in modes if job % 2 == 0 else modes[::-1]:
            untimed += settle(gauge)
            t0 = time.perf_counter()
            try:
                result = flow_job(
                    designs[index], stimuli[index],
                    tracer if mode == "traced" else NULL_TRACER,
                    f"{designs[index].name}#{job // len(designs)}")
            except Exception as exc:  # noqa: BLE001 — counted as failed
                result = exc
            runs[mode][index].append((t0, time.perf_counter(), result))
        job += 1
    gauge.read()    # closes the last job
    rss = peak_rss_mb()

    # The first run of each design is checked in full; repeats must
    # produce the same outputs.
    outcomes: dict[str, list[FlowOutcome]] = {mode: [] for mode in modes}
    for mode in modes:
        for index, design in enumerate(designs):
            first = None
            for number, (_, _, result) in enumerate(runs[mode][index]):
                report.attempted += 1
                label = f"{design.name} #{number} ({mode})"
                if isinstance(result, Exception):
                    report.fail(label, "".join(
                        traceback.format_exception_only(
                            type(result), result)).strip())
                    continue
                if first is None:
                    problem = check_flow(design, stimuli[index], result)
                    first = result
                else:
                    problem = "" if same_output(first, result) else \
                        "repeated run produced different outputs"
                if problem:
                    report.fail(label, problem)
                else:
                    outcomes[mode].append(result)

    counted = [runs["plain"][i][0][2] for i in range(len(designs))]
    counted = [o for o in counted if isinstance(o, FlowOutcome)]
    alus = sum(d.has_alu for d in designs)
    report.notes.append(f"{len(designs)} designs, {alus} "
                        f"({alus / len(designs):.0%}) with an ALU instance; "
                        f"{job} jobs per mode")
    if args.trace:
        plain, traced = (sum(e - s for times in runs[mode]
                             for s, e, _ in times) for mode in modes)
        report.metrics.update(flow_layers(tracer, counted,
                                          outcomes["traced"]))
        report.metrics["obs.tracer_overhead"] = traced / plain - 1.0
        report.metrics["obs.layer_coverage"] = layer_coverage(tracer,
                                                              "flow.job")
        emit_layer_table(tracer, "flow.job", WORK,
                         f"{args.workload}-{args.seed}")
        return
    report.timings([[(s, e) for s, e, _ in times]
                    for times in runs["plain"]], setup, gauge)
    # A closed loop with one client: its completion rate is the highest
    # rate it sustains.
    report.metrics["max_rate"] = report.metrics["jobs_per_s"]
    report.metrics["peak_rss_mb"] = rss
    report.metrics["ands_total"] = sum(o.ands for o in counted)
    report.metrics["luts_total"] = sum(o.luts for o in counted)
    report.metrics["lut_depth_total"] = sum(o.depth for o in counted)


def flow_layers(tracer, counted: list[FlowOutcome],
                traced: list[FlowOutcome]) -> dict[str, float]:
    """Per-layer metrics of a traced ``flow`` run: times are means per
    traced job, counts are sums over the counted designs."""
    per_job = layer_seconds(tracer, "flow.job")
    sim_s = per_job.get("netlist.sim", 0.0)
    metrics = {
        "verilog.parse_s": per_job.get("verilog.parse", 0.0),
        "verilog.dataflow_s": per_job.get("verilog.dataflow", 0.0),
        "elaborate.s": per_job.get("netlist.elaborate", 0.0),
        "opt.s": per_job.get("netlist.opt", 0.0),
        "map.s": per_job.get("netlist.opt.map", 0.0),
        "emit.s": per_job.get("netlist.emit", 0.0),
        "sim.s": sim_s,
        "sim.cycles_per_s": SIM_CYCLES / sim_s if sim_s else 0.0,
        "elaborate.gates": sum(o.gates for o in counted),
        "map.luts": sum(o.luts for o in counted),
        "map.depth": sum(o.depth for o in counted),
        "emit.bytes": sum(len(o.emitted) for o in counted),
    }
    # Per-pass seconds come from the PassStats optimize() returns.
    timed = [row for o in traced for row in o.passes]
    for name in ("simplify", "strash", "balance", "rewrite", "sweep"):
        metrics[f"opt.{name}_s"] = sum(
            r.seconds for r in timed if r.name == name) / len(traced)
    passes = [row for o in counted for row in o.passes]
    metrics["opt.iterations"] = sum(max(r.iteration for r in o.passes)
                                    for o in counted)
    noop = sum(r.gates_after == r.gates_before
               and r.levels_after == r.levels_before for r in passes)
    metrics["opt.noop_ratio"] = noop / len(passes)
    rewrites = [r.details or {} for r in passes if r.name == "rewrite"]
    cuts = sum(d.get("cuts_evaluated", 0) for d in rewrites)
    accepted = sum(d.get("replacements", 0) for d in rewrites)
    metrics["rewrite.cuts_evaluated"] = cuts
    metrics["rewrite.replacements"] = accepted
    metrics["rewrite.accept_ratio"] = accepted / cuts if cuts else 0.0
    metrics.update(cec_layers([o.cec for o in traced],
                              [o.cec for o in counted],
                              per_job.get("netlist.sat", 0.0)))
    return metrics


# -- verify -------------------------------------------------------------------


def check_verdict(miter: inputs.Miter, verdict) -> str:
    """Empty when a CEC verdict is right and carries its evidence."""
    if verdict.equivalent != miter.equivalent:
        return (f"verdict {verdict.equivalent}, expected "
                f"{miter.equivalent}")
    if not verdict.equivalent and (verdict.counterexample is None
                                   or not verdict.counterexample.diff):
        return "counterexample does not replay"
    if miter.certify and verdict.equivalent and \
            verdict.proof_checked is not True:
        return f"proof not accepted (proof_checked={verdict.proof_checked})"
    return ""


def run_verify(args, report: Report) -> None:
    gauge = Gauge()
    setup = [] if args.trace else probe_setup("verify", gauge)
    from repro.netlist import elaborate
    from repro.netlist.sat import check_equivalence
    from repro.obs import NULL_TRACER

    miters = inputs.verify_batch(args.seed)
    # Each job checks its own unpickled copy of the elaborated pair.
    # Unpickling drops the caches a netlist builds lazily, so no job reuses
    # work an earlier job on the same objects left behind, as a user
    # checking a pair once would not.
    blobs = [pickle.dumps((elaborate(m.before, top=m.tops[0]),
                           elaborate(m.after, top=m.tops[1])))
             for m in miters]
    tracer = _tracer(args.trace)
    modes = ("plain", "traced") if args.trace else ("plain",)
    warm_up("verify")

    # Whole passes over the batch, so every stratum has the same weight.
    # Each job: (miter index, mode, start, end, verdict or exception).
    jobs: list[tuple[int, str, float, float, object]] = []
    untimed = 0.0       # the copies, gauge readings, garbage collection
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start - untimed < args.seconds:
        for index, miter in enumerate(miters):
            order = modes if (index + passes) % 2 == 0 else modes[::-1]
            for mode in order:
                job_tracer = tracer if mode == "traced" else NULL_TRACER
                job = f"p{passes}.{index}.{miter.label}"
                t0 = time.perf_counter()
                before, after = pickle.loads(blobs[index])
                untimed += time.perf_counter() - t0 + settle(gauge)
                t1 = time.perf_counter()
                try:
                    with job_tracer.span("verify.job", job=job):
                        with job_tracer.span("netlist.sat", job=job):
                            verdict = check_equivalence(
                                before, after, certify=miter.certify)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    verdict = exc
                jobs.append((index, mode, t1, time.perf_counter(), verdict))
        passes += 1
    gauge.read()    # closes the last job
    rss = peak_rss_mb()

    first_pass, traced_verdicts = [], []
    for number, (index, mode, _, _, verdict) in enumerate(jobs):
        report.attempted += 1
        label = f"{miters[index].label} #{number} ({mode})"
        if isinstance(verdict, Exception):
            report.fail(label, repr(verdict))
            continue
        problem = check_verdict(miters[index], verdict)
        if problem:
            report.fail(label, problem)
        elif mode == "traced":
            traced_verdicts.append(verdict)
        elif number < len(miters) * len(modes):
            first_pass.append(verdict)

    unsat = sum(m.equivalent for m in miters)
    certified = sum(m.certify for m in miters)
    report.notes.append(
        f"{passes} passes of {len(miters)} miters: {len(miters) - unsat} SAT"
        f" ({(len(miters) - unsat) / len(miters):.0%}), {unsat} UNSAT"
        f" ({unsat / len(miters):.0%}), {certified} certified"
        f" ({certified / len(miters):.0%}); counts cover one pass")
    if args.trace:
        plain = sum(e - s for _, mode, s, e, _ in jobs if mode == "plain")
        traced = sum(e - s for _, mode, s, e, _ in jobs
                     if mode == "traced")
        per_job = layer_seconds(tracer, "verify.job")
        report.metrics.update(cec_layers(traced_verdicts, first_pass,
                                         per_job.get("netlist.sat", 0.0)))
        report.metrics["obs.tracer_overhead"] = traced / plain - 1.0
        report.metrics["obs.layer_coverage"] = layer_coverage(tracer,
                                                              "verify.job")
        emit_layer_table(tracer, "verify.job", WORK,
                         f"{args.workload}-{args.seed}")
        return
    report.timings([[(s, e)] for _, _, s, e, _ in jobs], setup, gauge)
    report.metrics["max_rate"] = report.metrics["jobs_per_s"]
    report.metrics["peak_rss_mb"] = rss


def cec_layers(timed: list, counted: list,
               cec_s: float) -> dict[str, float]:
    """``netlist.sat`` per-layer metrics from ``EquivalenceResult``s.

    Stage times are means per call over ``timed`` (the traced calls, whose
    mean wall time is ``cec_s``); counts are sums over ``counted``.
    """
    n = len(timed) or 1
    stages = {
        "cec.encode_s": sum(v.encode_seconds for v in timed) / n,
        "cec.sweep_s": sum(v.sweep_seconds for v in timed) / n,
        "cec.preprocess_s": sum((v.preprocessor or {}).get("seconds", 0.0)
                                for v in timed) / n,
        "cec.solve_s": sum(v.solve_seconds for v in timed) / n,
        "cec.proof_check_s": sum(v.proof_check_seconds for v in timed) / n,
    }
    props = sum(v.solver_stats.propagations for v in timed)
    solve = stages["cec.solve_s"] * n
    compared = sum(v.compared for v in counted)
    return {
        "cec.s": cec_s,
        **stages,
        "cec.other_s": cec_s - sum(stages.values()),
        "cec.hash_proven_ratio": (sum(v.hash_proven for v in counted)
                                  / compared if compared else 0.0),
        "cec.sweep_proven": sum(v.sweep_proven for v in counted),
        "cec.sim_refuted": sum(v.refuted_by_simulation for v in counted),
        "sat.conflicts": sum(v.solver_stats.conflicts for v in counted),
        "sat.decisions": sum(v.solver_stats.decisions for v in counted),
        "sat.propagations": sum(v.solver_stats.propagations
                                for v in counted),
        "sat.props_per_s": props / solve if solve else 0.0,
        "cnf.clauses": sum(v.cnf_clauses for v in counted),
        "preprocess.eliminated_vars": sum(
            (v.preprocessor or {}).get("eliminated_vars", 0)
            for v in counted),
        "proof.clauses": sum(v.proof_clauses for v in counted),
    }


# -- command line -------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_service(args, report: Report) -> None:
    import service
    service.run(args, report, WORK)


WORKLOADS: dict[str, Callable[..., None]] = {
    "flow": run_flow,
    "verify": run_verify,
    "service": run_service,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    report = Report()
    WORKLOADS[args.workload](args, report)

    if not args.trace:
        for name in FLOW_ONLY:
            report.metrics.setdefault(name, NOT_APPLICABLE)
    metrics = {}
    for entry in wanted:
        # Metrics of layers a workload never enters read 0 (per-layer) —
        # that is the prediction "unchanged" for this workload.
        value = report.metrics.get(entry["name"])
        if value is None and not args.trace:
            raise KeyError(f"{args.workload} did not measure "
                           f"{entry['name']}")
        metrics[entry["name"]] = {"value": float(value or 0.0),
                                  "unit": entry["unit"]}
    for note in report.notes:
        print(f"note: {note}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for error in report.errors:
        print(f"FAILED {error}")
    correct = report.failed == 0 and report.attempted > 0
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
