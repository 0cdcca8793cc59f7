"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
from stats import tail  # noqa: E402


def _texts(seed: int) -> list[str]:
    flow = [d.source for d in inputs.flow_sequence(seed, 12)]
    verify = [m.before + m.after for m in inputs.verify_batch(seed)]
    service = [r.before + r.after for r in inputs.service_pairs(seed, 40)]
    return flow + verify + service


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _texts(7) == _texts(7)
    assert _texts(7) != _texts(8)
    flow_a = [d.source for d in inputs.flow_sequence(7, 12)]
    flow_b = [d.source for d in inputs.flow_sequence(8, 12)]
    assert all(a != b for a, b in zip(flow_a, flow_b))


def test_service_pairs_are_distinct():
    pairs = inputs.service_pairs(3, 200)
    assert len({(p.before, p.after) for p in pairs}) == 200
    assert sum(p.equivalent for p in pairs) == 100


def test_tail_is_the_rank_with_ten_samples_beyond():
    # 30 samples: rank 20 has exactly 10 beyond it -> p66.7.
    value, percentile, count = tail(range(1, 31))
    assert (value, round(percentile, 2), count) == (20, 66.67, 30)
    # 100 samples: the 90th percentile.
    assert tail(range(100))[:2] == (89, 90.0)
    # 15 samples: rank 5 would sit below the median, which stands in.
    assert tail(range(1, 16)) == (8, 50.0, 15)


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    from repro.netlist.sat import EquivalenceResult

    monkeypatch.setattr(run, "probe_setup",
                        lambda workload, gauge: [(0.0, 1.0)])
    monkeypatch.setattr("repro.netlist.sat.check_equivalence",
                        lambda *args, **kwargs: EquivalenceResult(True))
    code = run.main(["--workload", "verify", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code != 0
    assert '"correct": false' in last
    # The eight bug twins read "equivalent" and the three certified proofs
    # are missing.
    assert '"failed": 11' in last


def test_max_rate_without_a_passing_rung_reads_below_the_lowest_rate():
    import service

    def rung(rate: float, latency: float) -> service.Rung:
        jobs = int(rate * 10)
        return service.Rung(rate, 1.0, [latency] * jobs, [], [], [], False,
                            10.0, 1.0, jobs)

    assert service.max_rate([rung(16.0, 0.05), rung(40.0, 0.05)]) == 40.0
    assert service.max_rate([rung(16.0, 0.05), rung(40.0, 5.0)]) == 16.0
    # The 16/s rung misses the 0.5 s limit by 2x: half its rate.
    assert service.max_rate([rung(16.0, 1.0)]) == 8.0


def test_gauge_scales_by_the_readings_around_a_job():
    from gauge import REFERENCE_S, Gauge

    gauge = Gauge()
    gauge.stamps = [1.0, 2.0, 3.0]
    gauge.readings = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    # Between the readings at 2.0 and 3.0: the host ran at 1/3 speed.
    assert gauge.scale(2.1, 2.9) == 1 / 3
    # After the last reading only that one counts.
    assert gauge.scale(3.5, 3.9) == 1 / 4
    gauge.read()
    assert len(gauge.readings) == 4 and gauge.readings[-1] > 0
