"""Per-layer self time of a traced run.

Every span the benchmark records carries a ``job`` id; a job's root span
(``flow.job`` / ``verify.job``) holds one child span per public call, named
after the layer (module) it enters.  A span's self time is its duration
minus that of its children.
"""

from __future__ import annotations

import os

from stats import quartiles


def _jobs(tracer, root: str) -> dict[str, dict[str, float]]:
    """Per job id: ``{root: wall, layer: self seconds, ...}``."""
    spans = [r for r in tracer.spans() if "job" in r.args]
    child_total: dict[tuple[str, str], float] = {}
    for record in spans:
        if record.path:
            key = (record.args["job"], record.path[-1])
            child_total[key] = child_total.get(key, 0.0) + record.duration
    jobs: dict[str, dict[str, float]] = {}
    for record in spans:
        job = jobs.setdefault(record.args["job"], {})
        own = record.duration - child_total.get(
            (record.args["job"], record.name), 0.0)
        job[record.name] = job.get(record.name, 0.0) + (
            record.duration if record.name == root else own)
    return jobs


def layer_seconds(tracer, root: str) -> dict[str, float]:
    """Mean self seconds per job of every layer span under ``root``."""
    jobs = _jobs(tracer, root)
    totals: dict[str, float] = {}
    for job in jobs.values():
        for name, seconds in job.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return {name: total / len(jobs) for name, total in totals.items()}


def layer_coverage(tracer, root: str) -> float:
    """Lowest share of a job's traced wall time inside named layers."""
    shares = []
    for job in _jobs(tracer, root).values():
        wall = job.get(root, 0.0)
        inside = sum(s for name, s in job.items() if name != root)
        if wall > 0:
            shares.append(inside / wall)
    return min(shares) if shares else 0.0


def emit_layer_table(tracer, root: str, work: str, tag: str) -> None:
    """Print the per-layer self-time table (quartiles over jobs) and the
    tracer's own profile tree, and write the Chrome trace to
    ``<work>/trace-<tag>.json``."""
    from repro.obs import profile_tree, write_chrome_trace

    jobs = _jobs(tracer, root)
    names = sorted({n for job in jobs.values() for n in job if n != root})
    totals = {name: sum(job.get(name, 0.0) for job in jobs.values())
              for name in names}
    grand = sum(totals.values()) or 1.0
    print(f"per-layer self time over {len(jobs)} traced jobs (ms)")
    print(f"{'layer':<20} {'q1':>9} {'median':>9} {'q3':>9} {'share':>7}")
    for name in names:
        q1, q2, q3 = quartiles(job.get(name, 0.0) for job in jobs.values())
        print(f"{name:<20} {q1 * 1e3:>9.2f} {q2 * 1e3:>9.2f} "
              f"{q3 * 1e3:>9.2f} {totals[name] / grand:>7.1%}")
    print(profile_tree(tracer))
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"trace-{tag}.json")
    write_chrome_trace(tracer, path)
    print(f"chrome trace: {path}")
