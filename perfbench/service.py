"""The ``service`` workload: the verification daemon under open-loop load.

One client process (this one, one thread, one connection at a time)
sends jobs on a fixed schedule regardless of completions, at each rung of
a ladder of offered rates.  Every rung gets a fresh daemon
(``python -m repro.server``) with an empty result cache: spawn, answer a
ping, finish one warm-up job per worker (that is the rung's set-up time),
send the rung's schedule, drain, read every job record, shut the daemon
down and wait for it to exit.

Traffic mix per rung (shares of scheduled jobs, see ``MIX``): fresh pairs
(cache misses), byte-identical repeats of a finished pair (source-alias
hits), comment-only variants of a finished pair (on-disk content-hash
hits), and byte-identical duplicates sent 5 ms after their original,
while it still runs (in-flight dedup).

Each job's latency runs from its *due* time to the daemon's ``finished``
stamp (both wall clock on one host), so neither the generator's lag nor
the client's polling hides a stall.  The offered rate is fixed, so
``jobs_per_s`` repeats it while the daemon keeps up; only ``job_p50_s``,
``job_tail_s`` and ``max_rate`` (the rung where the tail crosses the
limit) can show a change in the daemon.  ``job_p50_s``, ``job_tail_s``
and ``setup_s`` are scaled to a reference host speed by gauge readings
the client takes while it would otherwise sleep (``gauge.py``; the
unscaled values are noted); ``max_rate`` judges each rung on the
unscaled tail.  The traced run reads the ``server.*`` metrics from the
daemon's job records; it records no spans.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.server import ServerClient, ServerError

import inputs
from gauge import Gauge
from stats import median, tail

#: Rungs: (offered jobs/s, share of ``--seconds``), lowest rate first.
#: With two workers the daemon sustains roughly 60-100 jobs/s of this mix
#: (the host's speed drifts), so 40/s passes and 256/s fails with a wide
#: margin either way, and ``max_rate`` does not flip between rungs from
#: run to run.  The last rung only has to show the backlog growing.
#: Rungs above the nominal one stop at the first that misses the limit.
LADDER = ((16.0, 0.5), (40.0, 0.3), (256.0, 0.0625))
#: p50 / tail latency, throughput and memory are read at this rung.
NOMINAL_RATE = 16.0
#: ``max_rate``: the highest rung whose tail latency stays within this
#: limit and whose backlog does not grow.
LATENCY_LIMIT_S = 0.5
#: A rung stops sending (and fails) once this many jobs are in flight.
BACKLOG_CAP = 64
#: Scheduled-job shares in every block of 20: fresh, alias, content, dup.
#: Assumed, not measured: there is no record of real traffic to take them
#: from.  Fresh solves are the majority because they are the jobs that
#: reach the solver; the two cache tiers get equal shares; duplicates are
#: fewest because each needs an original still running.
MIX = {"fresh": 12, "alias": 3, "content": 3, "dup": 2}
#: Repeats and variants pick an original sent at least this long before.
REPEAT_AGE_S = 1.0
DUP_DELAY_S = 0.005
STATUS_POLL_S = 0.2
#: The client reads the host-speed gauge (``gauge.py``, about 25 ms) while
#: it would otherwise sleep at least this long before the next send, and
#: at most this often, so the readings never delay a send.
GAUGE_SLACK_S = 0.045
GAUGE_EVERY_S = 0.5


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Event:
    due: float          # seconds after the rung's start
    request: inputs.Request
    before: str
    after: str


def schedule(rng: random.Random, pool: list[inputs.Request], rate: float,
             duration: float) -> list[Event]:
    """The rung's send schedule, sorted by due time."""
    kinds = inputs.Bag(rng, [kind for kind, n in MIX.items()
                             for _ in range(n)])
    fresh: list[Event] = []
    events: list[Event] = []
    variants = 0
    for k in range(int(rate * duration)):
        due = k / rate
        kind = kinds.draw()
        old = [e for e in fresh if e.due <= due - REPEAT_AGE_S]
        if kind in ("alias", "content") and old:
            original = rng.choice(old)
            before = original.before
            if kind == "content":
                variants += 1
                before = f"// variant {variants}\n{original.before}"
            events.append(Event(due, original.request, before,
                                original.after))
        elif kind == "dup" and fresh:
            original = fresh[-1]
            events.append(Event(original.due + DUP_DELAY_S,
                                original.request, original.before,
                                original.after))
        else:
            request = pool.pop()
            event = Event(due, request, request.before, request.after)
            fresh.append(event)
            events.append(event)
    events.sort(key=lambda e: e.due)
    return events


class Daemon:
    """One ``python -m repro.server`` child process."""

    def __init__(self, src: str, work: str) -> None:
        self.cache = os.path.join(work, "cache")
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=work)
        self.client = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", str(workers()), "--cache", self.cache],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=os.path.dirname(src))
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            port = int(line.split()[2].rsplit(":", 1)[1])
            self.client = ServerClient(port=port, timeout=30.0)
            self.client.ping()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the daemon and its workers."""
        pids = [self.proc.pid]
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children",
                      encoding="ascii") as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
        total_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful shutdown; kill if it does not exit in time."""
        if self.proc.poll() is None and self.client is not None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 — fall through to kill
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=20)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def warm_up(client) -> None:
    """One distinct small job per worker, sent together so each worker
    starts and imports before the first timed job."""
    ids = []
    for w in range(workers()):
        _, before = inputs.ripple_adder_module(2, w)
        _, after = inputs.plus_adder_module(2, w)
        ids.append(client.submit(before, after)["id"])
    for job_id in ids:
        client.wait(job_id, timeout=60.0)


@dataclass
class Rung:
    rate: float
    setup_s: float
    latencies: list
    records: list       # (event, submit reply, job record)
    lags: list
    backlog: list       # (seconds since start, jobs in flight)
    aborted: bool
    span_s: float
    rss_mb: float
    scheduled: int      # jobs on the rung's schedule
    #: ``latencies`` and ``setup_s`` scaled to the reference host speed.
    scaled: list = field(default_factory=list)
    scaled_setup_s: float = 0.0

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.span_s if self.span_s else 0.0

    def backlog_grows(self) -> bool:
        """Mean backlog of the last quarter above that of the second
        quarter by more than one job per worker."""
        if len(self.backlog) < 8:
            return False
        end = self.backlog[-1][0]
        second = [b for t, b in self.backlog if end / 4 <= t < end / 2]
        last = [b for t, b in self.backlog if t >= 3 * end / 4]
        if not second or not last:
            return False
        return (sum(last) / len(last) - sum(second) / len(second)
                > workers())

    def passes(self) -> bool:
        return (not self.aborted and not self.backlog_grows()
                and tail(self.latencies)[0] <= LATENCY_LIMIT_S)


def run_rung(rate: float, events: list[Event], src: str, work: str,
             gauge: Gauge) -> Rung:
    gauge.read()
    spawned = time.perf_counter()
    daemon = Daemon(src, work)
    try:
        warm_up(daemon.client)
        ready = time.perf_counter()
        gauge.read()
        client = daemon.client
        sent: list[tuple[Event, dict]] = []
        lags: list[float] = []
        backlog: list[tuple[float, int]] = []
        aborted = False
        start = time.time()
        # The daemon stamps jobs with time.time(); gauge readings carry
        # perf_counter() stamps.
        offset = start - time.perf_counter()
        next_poll = 0.0
        for event in events:
            while True:
                now = time.time() - start
                if now >= next_poll:
                    jobs = client.status()["jobs"]
                    backlog.append((now, jobs.get("queued", 0)
                                    + jobs.get("running", 0)))
                    next_poll = now + STATUS_POLL_S
                    aborted = backlog[-1][1] > BACKLOG_CAP
                if aborted or now >= event.due:
                    break
                idle = time.perf_counter() - gauge.stamps[-1]
                if event.due - now >= GAUGE_SLACK_S and \
                        idle >= GAUGE_EVERY_S:
                    gauge.read()
                    continue
                time.sleep(max(0.0, min(event.due, next_poll) - now))
            if aborted:
                break
            lags.append(time.time() - start - event.due)
            try:
                reply = client.submit(event.before, event.after)
            except (ServerError, OSError) as exc:
                reply = {"id": None, "error": str(exc)}
            sent.append((event, reply))
        deadline = time.time() + 60.0
        while time.time() < deadline:
            jobs = client.status()["jobs"]
            if not jobs.get("queued") and not jobs.get("running"):
                break
            time.sleep(0.05)
        gauge.read()
        records = []
        latencies = []
        scaled = []
        finished = []
        for event, reply in sent:
            record = {"status": "error", "error": reply.get("error")}
            if reply["id"] is not None:
                try:
                    record = client.job(reply["id"])
                except (ServerError, OSError) as exc:
                    record["error"] = str(exc)
            records.append((event, reply, record))
            if record.get("finished") is not None:
                latencies.append(record["finished"] - start - event.due)
                scaled.append(latencies[-1] * gauge.scale(
                    start + event.due - offset, record["finished"] - offset))
                finished.append(record["finished"] - start)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    span_s = max(finished, default=0.0) - (events[0].due if events else 0.0)
    return Rung(rate, ready - spawned, latencies, records, lags, backlog,
                aborted, span_s, rss, len(events), scaled,
                (ready - spawned) * gauge.scale(spawned, ready))


def check(event: Event, reply: dict, record: dict) -> str:
    """Empty when the daemon answered the request correctly."""
    if record.get("status") != "done":
        return f"status {record.get('status')}: {record.get('error')}"
    report = record.get("equivalence") or {}
    if report.get("equivalent") != event.request.equivalent:
        return (f"verdict {report.get('equivalent')}, expected "
                f"{event.request.equivalent}")
    if not event.request.equivalent and not (
            report.get("counterexample") or {}).get("diff"):
        return "counterexample does not replay"
    return ""


def classify(reply: dict, record: dict) -> str:
    """How the daemon served a job: alias / dedup / disk / fresh."""
    if reply.get("deduplicated"):
        return "dedup"
    if reply.get("cache_hit"):
        return "alias"
    if record.get("cache_hit"):
        return "disk"
    return "fresh"


def max_rate(rungs: list[Rung]) -> float:
    """Completion rate at the highest passing rung.

    When no rung passes, the lowest rung's rate is scaled down by how far
    its tail overshoots the limit and by the share of its schedule that
    completed, so a daemon too slow for even the lowest rung reads below
    every passing outcome instead of repeating the offered rate.
    """
    passing = [r for r in rungs if r.passes()]
    if passing:
        return passing[-1].throughput
    lowest = rungs[0]
    overshoot = min(1.0, LATENCY_LIMIT_S / max(tail(lowest.latencies)[0],
                                               1e-9))
    completed = len(lowest.latencies) / max(1, lowest.scheduled)
    return lowest.throughput * min(overshoot, completed)


def run(args, report, work: str) -> None:
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"service-schedule:{args.seed}")
    rungs: list[Rung] = []
    gauge = Gauge()
    for rate, share in LADDER:
        duration = share * args.seconds
        # Each rung's daemon starts with an empty cache, so its pairs need
        # only be distinct within the rung.
        pool = inputs.service_pairs(f"{args.seed}@{rate:g}",
                                    int(rate * duration))
        pool.reverse()
        events = schedule(rng, pool, rate, duration)
        rung = run_rung(rate, events, src, work, gauge)
        rungs.append(rung)
        for event, reply, record in rung.records:
            report.attempted += 1
            problem = check(event, reply, record)
            if problem:
                report.fail(f"{event.request.label} at {rate:g}/s", problem)
        report.attempted += len(events) - len(rung.records)
        if not rung.passes() and rate >= NOMINAL_RATE:
            break

    nominal = next(r for r in rungs if r.rate == NOMINAL_RATE)
    kinds = [classify(reply, record) for _, reply, record in nominal.records]
    shares = {k: kinds.count(k) / len(kinds) for k in
              ("fresh", "alias", "disk", "dedup")}
    report.notes.append("rungs " + ", ".join(
        f"{r.rate:g}/s: tail {tail(r.latencies)[0] * 1e3:.0f} ms, backlog "
        f"max {max(b for _, b in r.backlog)}"
        f"{'' if r.passes() else ' (fails)'}" for r in rungs))
    if not any(r.passes() for r in rungs):
        report.notes.append("no rung passes: max_rate is the lowest rung's "
                             "rate scaled by limit / tail")
    report.notes.append(
        f"nominal {NOMINAL_RATE:g}/s served as " + ", ".join(
            f"{k} {v:.0%}" for k, v in shares.items()))
    if args.trace:
        pool_jobs = {record["id"]: record for _, reply, record
                     in nominal.records if classify(reply, record)
                     in ("fresh", "disk")}
        work_s = [r["seconds"] for r in pool_jobs.values()]
        queue_s = [r["finished"] - r["started"] - r["seconds"]
                   for r in pool_jobs.values()]
        report.metrics.update({
            "server.work_s": median(work_s),
            "server.queue_s": median(queue_s),
            "server.alias_hit_ratio": shares["alias"],
            "server.disk_hit_ratio": shares["disk"],
            "server.dedup_ratio": shares["dedup"],
            "server.backlog_max": max(b for _, b in nominal.backlog),
            "server.worker_busy_ratio": sum(work_s)
            / (workers() * nominal.span_s),
            "server.generator_lag_s": max(nominal.lags),
        })
        return
    report.metrics["setup_s"] = median(r.scaled_setup_s for r in rungs)
    report.metrics["jobs_per_s"] = nominal.throughput
    report.metrics["max_rate"] = max_rate(rungs)
    report.tail_metrics(nominal.scaled)
    report.metrics["peak_rss_mb"] = nominal.rss_mb
    report.notes.append(
        f"unscaled: job_p50_s {median(nominal.latencies):.6g}, job_tail_s "
        f"{tail(nominal.latencies)[0]:.6g}, setup_s "
        f"{median(r.setup_s for r in rungs):.6g}")
    report.notes.append(gauge.note())
