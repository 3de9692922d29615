"""Toy-size self-test of the benchmark.

    python3 bench/selftest.py

For every workload, runs run.py at toy sizes untraced and traced, and
checks that the last output line is the result object, that its metrics
are exactly the end-to-end (untraced) or per-layer (traced) metrics named
in BENCHMARK.json with the units named there, that every op passed its
reference check, and that the exact counts repeated.  Then checks that
run.py refuses to run, without printing a result, in a copy of the
benchmark that has no lindtherm sources beside it (worker.py makes that
check).  Takes under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if not [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(workloads.WORKLOADS):
        print("FAIL workloads of BENCHMARK.json, run.py and workloads.py differ")
        return 1
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            before = len(errors)
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(result)}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(n for n in set(units) & set(expected[trace])
                               if units[n] != expected[trace][n])
                errors.append(f"{tag}: metrics missing {missing}, extra {extra}, "
                              f"wrong unit {wrong}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']}: {proc.stderr.strip()[-500:]}")
            print(f"{'ok  ' if len(errors) == before else 'FAIL'} {tag}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("run.py printed a result without lindtherm sources beside it")
    else:
        print("ok   refuses to run without lindtherm sources")

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
