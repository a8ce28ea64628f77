"""Benchmark of pcmlex: three closed-loop workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload lex-cdag --seed 1 --seconds 36 --trace 0

``--workload`` is one of lex-cdag, cr-cdag, sweep-witness, or ``all`` for the
three in turn in this process. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines above it print the same metrics as a table.

The run builds every input from ``--seed`` in set-up, runs one untimed
warm-up operation, then repeats whole passes of the workload's fixed
operation list, one operation at a time, while another pass still fits in
``--seconds`` (at least one pass). Outputs of the first pass are checked
after timing. BLAS runs on one thread in this process and its children.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("lex-cdag", "cr-cdag", "sweep-witness")
# Fresh-interpreter set-ups before and after the timed loop; their median is
# setup_s. Splitting them samples two moments of the run, not one.
SETUP_PROBES = (5, 4)
PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10  # operations of a pass a tail percentile must have above it
PROBE_TIMEOUT_S = 60.0


def load_workloads():
    """Import the benchmark's workloads, with pcmlex from the checkout's src."""
    src = ROOT / "src"
    if not (src / "pcmlex" / "__init__.py").is_file():
        raise SystemExit(f"run.py: pcmlex sources not found under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Import the package, build the inputs and run the warm-up operation."""
    wl = load_workloads().WORKLOADS[name](seed)
    wl.run(0)
    return wl


def probe_setup_s(name: str, seed: int, count: int) -> list[float]:
    """Times from a fresh interpreter until the first operation is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        times.append(ready - start)
    return times


@dataclass
class Passes:
    """What a closed loop over whole passes of an operation list measured."""

    latencies: list = field(default_factory=list)  # CPU seconds per operation
    outputs: list = field(default_factory=list)  # first pass only
    failed: int = 0
    passes: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0  # sum of the latencies

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.cpu_s


def run_passes(run, n_ops: int, seconds: float, on_op=None) -> Passes:
    """Repeat whole passes of ``run(0) .. run(n_ops - 1)``.

    Another pass starts only while it is expected to end within ``seconds``
    of wall time from the start, judged by the pass before it. Each
    operation is timed by the CPU time of this process, which excludes the
    time the host gives to other tenants (see the README). An operation
    that raises is counted as failed and the loop goes on.
    """
    res = Passes(outputs=[None] * n_ops)
    wall, clock = time.perf_counter, time.process_time
    start = wall()
    while True:
        pass_start = wall()
        for i in range(n_ops):
            if on_op is not None:
                on_op(res.passes * n_ops + i)
            t0 = clock()
            try:
                out = run(i)
            except Exception:  # the run must go on; the failure is counted
                out = None
                res.failed += 1
                if res.passes == 0:
                    print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            res.latencies.append(clock() - t0)
            if res.passes == 0:
                res.outputs[i] = out
        res.passes += 1
        now = wall()
        if now - start + (now - pass_start) > seconds:
            break
    res.wall_s = wall() - start
    res.cpu_s = math.fsum(res.latencies)
    return res


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of n operations beyond it.

    50 below 40 operations. Taking n as the length of one pass, not the
    number of samples, keeps the percentile a property of the workload: a
    faster program that fits more passes into a run is compared at the same
    percentile as before.
    """
    reached = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND]
    return reached[-1] if reached else 50.0


def check(wl, outputs) -> list[str]:
    import checks

    if wl.name == "sweep-witness":
        return checks.check_sweep(wl.slots, outputs)
    check_op = checks.check_lex if wl.name == "lex-cdag" else checks.check_cr
    problems = []
    for i, (slot, out) in enumerate(zip(wl.slots, outputs)):
        if out is not None:
            problems += [f"operation {i}: {p}" for p in check_op(slot, out)]
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = [] if trace else probe_setup_s(name, seed, SETUP_PROBES[0])
    wl = set_up(name, seed)
    plain = run_passes(wl.run, len(wl), seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_passes(wl.run, len(wl), seconds / 2, on_op=lambda k: setattr(tracer, "op", k))
        metrics = tracing.per_layer_metrics(tracer.spans, tracer.counts, traced.passes)
        metrics["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0), "%")
        tracing.write_spans(tracer.spans, HERE / "out" / f"spans-{name}-seed{seed}.jsonl")
        note = f"{traced.passes} traced pass(es) of {len(wl)} operations"
    else:
        import numpy as np

        probes += probe_setup_s(name, seed, SETUP_PROBES[1])
        tail_p = tail_percentile(len(wl))
        ms = [1000.0 * x for x in plain.latencies]
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (float(np.percentile(ms, tail_p)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        note = f"{plain.passes} pass(es) of {len(wl)} operations, tail is p{tail_p:g}"
    problems = check(wl, plain.outputs)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"# {name} seed={seed}: {note}, {plain.attempted} attempted, {plain.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:28s} {value:14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    load_workloads()  # fail before any probe when the package is missing
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
