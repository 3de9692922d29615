"""One workload in one process: set-up, then the workload's fixed op list.

Started by run.py, which sets one BLAS thread in the environment before
this process imports numpy.  The process pins itself to the quietest CPU
before set-up and before every op, and times host.py's reference kernel
after set-up and around every timed op (host.py says why).  It prints one
JSON line with its set-up time, the time of every op it ran, the reference
times that go with them, the CPU each timed op ran on, its peak resident
memory and its environment.  With --setup-only it stops after set-up;
run.py starts it that way several times to take a median set-up time.

Set-up is everything before the first timed op: ``import lindtherm``,
generating the inputs from the seed, and one toy-sized warm-up op of each
kind, which also triggers scipy's lazy imports.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

import host  # noqa: E402

CPUS = host.allowed_cpus()
host.pin_quietest(CPUS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _timed(op):
    """Run and check one op; returns (seconds, problems).

    An op that raises, or whose output its check cannot read, has failed;
    it is counted, not fatal to the run.
    """
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(out)
    except Exception as exc:
        return elapsed, [f"check: {type(exc).__name__}: {exc}"]


class Tally:
    """Op times and failures of one pass or of a whole run."""

    def __init__(self, ops):
        self.times = {op.name: [] for op in ops}
        self.refs = {op.name: [] for op in ops}
        self.scenario = {op.name: op.scenario for op in ops}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cpu_picks = {}

    def run_pass(self, ops, reference=True):
        """Run each op once, on the quietest CPU.

        With ``reference``, the op's time goes with the mean of the
        reference times taken just before and just after it.
        """
        for op in ops:
            cpu = host.pin_quietest(CPUS)
            self.cpu_picks[cpu] = self.cpu_picks.get(cpu, 0) + 1
            before = host.reference_seconds() if reference else 0.0
            elapsed, problems = _timed(op)
            if reference:
                self.refs[op.name].append(0.5 * (before + host.reference_seconds()))
            self.times[op.name].append(elapsed)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in problems)

    def as_dict(self) -> dict:
        return {
            "ops": {name: {"scenario": self.scenario[name], "times": t,
                           "refs": self.refs[name]}
                    for name, t in self.times.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "cpu_picks": {str(c): n for c, n in sorted(self.cpu_picks.items())},
        }


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(CPUS),
        "cpu": _cpu_model(),
        "cache": _cache_sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "lindtherm" / "__init__.py").is_file():
        print(f"bench: no lindtherm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lindtherm

    if Path(lindtherm.__file__).resolve().parent != (SRC / "lindtherm").resolve():
        print(f"bench: imported lindtherm from {lindtherm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        sizes = workloads.TOY if args.toy else workloads.FULL
        ops = workloads.build(args.workload, args.seed, work / "ops", sizes)
        warm = workloads.build(args.workload, args.seed, work / "warm", workloads.TOY)
        warm_tally = Tally(warm)
        warm_tally.run_pass(warm, reference=False)
        result = {"setup_s": time.perf_counter() - T0}
        result["setup_ref_s"] = sorted(host.reference_seconds() for _ in range(3))[1]
        if warm_tally.failed:
            result["warmup_problems"] = warm_tally.problems
        if args.setup_only:
            print(json.dumps(result))
            return 0
        result["env"] = environment(args.workload, args.seed)

        if args.trace:
            import spans

            # untraced and traced passes alternate, so a slow spell of the
            # host lands on both sides of trace.overhead_frac
            untraced = Tally(ops)
            passes = []
            for _ in range(2):
                untraced.run_pass(ops)
                tally = Tally(ops)
                with spans.Tracer() as tracer:
                    tally.run_pass(ops)
                passes.append((tally, tracer))
            WORK.mkdir(exist_ok=True)
            passes[0][1].write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
            result["untraced"] = untraced.as_dict()
            result["traced"] = [t.as_dict() for t, _ in passes]
            result["layers"] = [tr.layer_metrics() for _, tr in passes]
        else:
            tally = Tally(ops)
            start = time.perf_counter()
            n = 0
            while True:
                tally.run_pass(ops)
                n += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / n > args.seconds:
                    break
            result.update(tally.as_dict())
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
