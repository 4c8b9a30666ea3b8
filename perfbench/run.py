"""Benchmark of the thinwall library: one workload per run, one process.

    python3 perfbench/run.py --workload {study,cell,references}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the library is imported from
its src/ directory.  The run repeats whole rounds of the workload's
operations while the next round, taking as long as the slowest so far,
still ends within --seconds (at least one round), then checks every
operation's outputs.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are end to end: setup_s (median of fresh
processes that import the library and build the inputs), wall_s (mean
round time of the operations, without setup and checks) and peak_rss_mb.
Both times are scaled to a quiet machine: a fixed pure-Python loop is
timed before and after every operation (and at the study's log lines),
and each time is multiplied by QUIET_LOOP_S over the loop's mean time
while it was measured (see Speed).  The raw times and the probes are on
the line before the result.
With --trace 1 the library's layers are wrapped from outside (see
layertrace.py) and the metrics are the per_layer ones of BENCHMARK.json,
medians over rounds; layer figures that read zero on some workload (the
study's stages, bessel, constraints, field evaluation) go to the line
before the result instead.

The inputs have no random part, so --seed does not change them; it is
accepted so that every run has the same interface.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_S = 0.3           # length of one speed probe
# median time of one probe loop on a quiet core of the machine the figures
# in README.md come from; it only sets the scale of the reported times
QUIET_LOOP_S = 1.2e-3


def _cpu_seconds():
    t = os.times()
    return t.user + t.system


def _probe_loop():
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    return s


class Speed:
    """Probes of the machine's speed, taken between pieces of timed work.

    Other tenants share the machine's cores, and their load drifts over
    minutes; on the 2-vCPU machine of README.md the raw time of the same
    study ranged from 30 s to 50 s between runs.  A
    probe runs a fixed pure-Python loop back to back for PROBE_S and keeps
    the median time of one loop.  Work timed while probes were taken is
    scaled by `factor`, so that its time reads as on a quiet machine.
    `spent` is the time the probes took, for spans that probe inside
    their timing.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.loops = []
        self.spent = 0.0

    def probe(self, *_):
        if not self.enabled:
            return
        start = time.perf_counter()
        times = []
        while time.perf_counter() - start < PROBE_S:
            t0 = time.perf_counter()
            _probe_loop()
            times.append(time.perf_counter() - t0)
        self.loops.append(statistics.median(times))
        self.spent += time.perf_counter() - start

    def factor(self, since=0):
        """QUIET_LOOP_S over the mean loop time of the probes from `since`.

        The mean, not the median: timed work is slowed by every busy
        spell, so it tracks the average slowdown.
        """
        return QUIET_LOOP_S / statistics.mean(self.loops[since:])


def _setup_seconds(workload, speed):
    """Time from spawning a fresh process to its inputs being built."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--setup-probe"], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
        speed.probe()
    return samples


def _run_rounds(wl, inputs, seconds, tracer, speed):
    """Whole rounds while one more, as slow as the slowest, ends in time.

    The machine's speed drifts over tens of seconds, so the run measures
    as long as `seconds` allows; its rounds are whole so that every run
    attempts the same operations in the same proportion.

    Returns per-round records {busy_s, cpu_s, ops, datas, layers}; a data
    entry is None for an operation that raised.
    """
    rounds = []
    start = time.perf_counter()
    speed.probe()
    while True:
        ops = wl.ops(inputs)
        if tracer is not None:
            tracer.reset()
        busy = cpu = 0.0
        datas = []
        for op in ops:
            t0, c0, p0 = time.perf_counter(), _cpu_seconds(), speed.spent
            try:
                raw = op.run(speed.probe)
            except Exception:
                traceback.print_exc()
                raw = None
            probing = speed.spent - p0
            busy += time.perf_counter() - t0 - probing
            cpu += _cpu_seconds() - c0 - probing
            speed.probe()
            if tracer is not None:
                tracer.enabled = False
            datas.append(None if raw is None else op.measure(raw))
            del raw
            if tracer is not None:
                tracer.enabled = True
        rounds.append({"busy_s": busy, "cpu_s": cpu, "ops": ops,
                       "datas": datas,
                       "layers": None if tracer is None else tracer.metrics()})
        slowest = max(r["busy_s"] for r in rounds)
        if time.perf_counter() - start + slowest > seconds:
            return rounds


def _check(wl, inputs, rounds):
    """(attempted, failed, check failure messages) over all rounds.

    An operation fails if it raised or failed a check; messages list only
    the failed checks, so `correct` speaks of the operations that ran.
    """
    attempted = failed = 0
    messages = []
    for r in rounds:
        ops = r["ops"]
        bad = [d is None for d in r["datas"]]
        for i, (op, data) in enumerate(zip(ops, r["datas"])):
            if data is None:
                continue
            msgs = op.check(data)
            messages += [f"{op.name}: {m}" for m in msgs]
            bad[i] = bad[i] or bool(msgs)
        if wl.check_round is not None and not any(bad):
            msgs = wl.check_round(inputs, r["datas"])
            messages += [f"{ops[-1].name}: {m}" for m in msgs]
            bad[-1] = bad[-1] or bool(msgs)
        attempted += len(ops)
        failed += sum(bad)
    return attempted, failed, messages


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("study", "cell", "references"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "thinwall").is_dir() or \
            not (ROOT / "configs" / "study.cfg").is_file():
        print(f"perfbench: no src/thinwall and configs/study.cfg under "
              f"{ROOT}; run it from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(ROOT)
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    speed = Speed(enabled=not args.trace)
    rounds = _run_rounds(wl, inputs, args.seconds, tracer, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
    attempted, failed, messages = _check(wl, inputs, rounds)

    wall_s = statistics.mean(r["busy_s"] for r in rounds)
    detail = {"workload": args.workload, "rounds": len(rounds),
              "ops": [op.name for op in rounds[0]["ops"]],
              "round_s": [r["busy_s"] for r in rounds],
              "round_cpu_s": [r["cpu_s"] for r in rounds]}
    if args.workload == "study":
        detail["stages_s"] = [r["datas"][0] and r["datas"][0]["stages_s"]
                              for r in rounds]
    if args.trace:
        for r in rounds:
            r["layers"]["process.cpu_s"] = r["cpu_s"]
        layers = {k: statistics.median(r["layers"][k] for r in rounds)
                  for k in rounds[0]["layers"]}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: _metric(layers.pop(m["name"]), m["unit"])
                   for m in spec["per_layer"]}
        detail["other_layers"] = layers
        detail["traced_wall_s"] = wall_s
    else:
        wall_factor = speed.factor()
        # the last probe of the rounds comes just before the first setup
        since = len(speed.loops) - 1
        samples = _setup_seconds(args.workload, speed)
        setup_factor = speed.factor(since)
        detail.update({"raw_setup_s": samples, "raw_wall_s": wall_s,
                       "probe_loop_s": speed.loops,
                       "setup_factor": setup_factor,
                       "wall_factor": wall_factor})
        metrics = {"setup_s": _metric(
                       statistics.median(samples) * setup_factor, "s"),
                   "wall_s": _metric(wall_s * wall_factor, "s"),
                   "peak_rss_mb": _metric(peak_rss_mb, "MB")}
    for m in messages:
        print(f"FAIL {m}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": not messages, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
