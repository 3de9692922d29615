"""lindtherm benchmark: one workload, closed loop, one op at a time.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: engine-dense, evolve-driven, term-loops, chem-band (README.md
says why each exists).  Inputs are generated from --seed; the default seed
is the baseline seed and HELDOUT_SEED confirms claims made on it.

--trace 0 measures end to end, untraced: it runs the op list for about
--seconds, starts the worker set-up SETUP_PROBES more times on its own to
take a median set-up time, and reports
    setup_s       median scaled set-up time of the worker processes (s)
    wall_s        sum over the op list of each op's median scaled time (s)
    peak_rss_mib  peak resident memory of the measuring process (MiB)
A scaled time is a measured time times host.REFERENCE_S over the time of
host.py's reference kernel taken next to it: the time on an uncontended
vCPU of the machine in README.md, with the host's slow stretches divided
out.
--trace 1 runs the op list twice untraced and twice traced, alternating,
and reports the
per-layer metrics of spans.py, each scenario's time from the untraced pass
and trace.overhead_frac, and fails the run if an exact count differs
between the two traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it record the
environment, each op's time, sample count and failed_frac, and the CPUs
the timed ops ran on.  Each workload runs in a process of its own with one
BLAS thread, pinned to the quietest CPU before every op (host.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import REFERENCE_S
from spans import EXACT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the names workloads.build accepts, repeated here so this process imports no
# numpy; selftest.py checks that the two lists agree
WORKLOADS = ("engine-dense", "evolve-driven", "term-loops", "chem-band")
DEFAULT_SEED = 1
HELDOUT_SEED = 7103
SETUP_PROBES = 8
SCENARIOS = ("engine_power", "evolve", "pv_sweep", "chem_engine", "replicator", "power_report")
# the whole benchmark must end within 180 s; workers are killed past this
DEADLINE_S = 170.0


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    if args.toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker still running {DEADLINE_S:.0f} s after the start")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


def _op_times(ops: dict) -> dict:
    """Each op's median scaled time in the run."""
    return {name: statistics.median(map(_scaled, o["times"], o["refs"]))
            for name, o in ops.items()}


def _scenario_times(ops: dict) -> dict:
    times = _op_times(ops)
    out = {s: 0.0 for s in SCENARIOS}
    for name, o in ops.items():
        out[o["scenario"]] += times[name]
    return out


def _end_to_end(res: dict, setups: list) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(_op_times(res["ops"]).values()), "unit": "s"},
        "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
    }


def _per_layer(res: dict):
    """Per-layer metrics and the names of exact counts that did not repeat."""
    first, second = res["layers"]
    mismatched = []
    for name in EXACT:
        if first[name][0] != second[name][0]:
            mismatched.append(f"{name}: {first[name][0]} then {second[name][0]}")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = 0.5 * (value + second[name][0])
        metrics[name] = {"value": value, "unit": unit}
    untraced = sum(_op_times(res["untraced"]["ops"]).values())
    traced = statistics.mean(sum(_op_times(t["ops"]).values()) for t in res["traced"])
    metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced, "unit": "1"}
    for scenario, value in _scenario_times(res["untraced"]["ops"]).items():
        metrics[f"scenario.{scenario}_s"] = {"value": value, "unit": "s"}
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the self-test only")
    args = parser.parse_args(argv)

    # one BLAS thread, because the worker runs each op pinned to one CPU
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    deadline = time.monotonic() + DEADLINE_S

    def setup_probe():
        probe = _worker(args, ["--setup-only"], env, deadline)
        return _scaled(probe["setup_s"], probe["setup_ref_s"])

    # half the set-up probes before the measuring worker and half after, so
    # that they sample the host over the whole run
    before = 0 if args.trace else SETUP_PROBES // 2
    after = 0 if args.trace else SETUP_PROBES - before
    setups = [setup_probe() for _ in range(before)]
    res = _worker(args, [], env, deadline)
    setups.append(_scaled(res["setup_s"], res["setup_ref_s"]))
    setups += [setup_probe() for _ in range(after)]

    problems = list(res.get("warmup_problems", []))
    if args.trace:
        metrics, mismatched = _per_layer(res)
        problems += [f"exact count changed between passes: {m}" for m in mismatched]
        runs = [res["untraced"]] + res["traced"]
    else:
        metrics = _end_to_end(res, setups)
        runs = [res]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems += [p for r in runs for p in r["problems"]]

    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    scaled = _op_times(runs[0]["ops"])
    for name, o in runs[0]["ops"].items():
        t = o["times"]
        print(f"# op {name} ({o['scenario']}): median scaled {scaled[name]:.4f} s; measured "
              f"median {statistics.median(t):.4f} s, min {min(t):.4f} s, max {max(t):.4f} s "
              f"over {len(t)} runs; reference median {statistics.median(o['refs']) * 1e3:.3f} ms")
    print(f"# timed ops per CPU {json.dumps(runs[0]['cpu_picks'])}")
    print(f"# failed_frac {failed / attempted:.4g} ({failed} of {attempted} ops)")
    for p in sorted(set(problems)):
        print(f"# problem ({problems.count(p)}x): {p}")
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
