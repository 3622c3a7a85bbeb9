"""relquad benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; relquad is imported from ./src and
nowhere else.  One process and one thread send each op only after the
previous one completed, and the CLI's --jobs stays off.  The run measures
a fixed number of whole cycles of ops (see workloads.py): --seconds divided
by the workload's CYCLE_SECONDS.  So every run sees the same mix of ops, and
runs of two versions of relquad given the same --seconds take the same
number of samples and report the same tail percentile.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms,
fail_rate, setup_s and peak_rss_mb.  Times are CPU times scaled to a
reference machine speed (see REF_PROBE_S).  --trace 1 draws a quarter of
that many cycles and runs them three times: untraced to warm relquad's
caches, untraced again, and traced.  It prints the per-layer metrics of the
traced pass and the tracing overhead, the traced pass's op time over the second
untraced pass's, both at the reference speed; its spans go to
perfbench/out/.

Every op is checked by independent routes; every failure is printed to
stderr and counted.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
report: provenance, sample count, tail percentile, raw times and digest.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7  # fresh processes whose set-up times give setup_s's median
# p90 needs 110 samples and p99 1010; the sample count, and so the
# percentile, depends only on the workload and --seconds
TAIL_GRID = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# Machine speed.  On a shared machine the CPU time of fixed work drifts by
# tens of percent within seconds (another tenant on the sibling hardware
# thread, clock changes).  Before every op the runner times _probe(), a fixed
# piece of pure-Python work that relquad does not touch, and every time in
# the end-to-end metrics is scaled to the speed at which _probe() takes
# REF_PROBE_S.  Raw CPU and wall figures stay in the report line.
REF_PROBE_S = 0.85e-3  # _probe()'s CPU time when the benchmark was sized
SPEED_WINDOW = 7  # probes on either side of an op that give its local speed
SETUP_PROBES = 20  # probes before and after set-up in a set-up process

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload's inputs and exit; times set-up in a fresh process",
    )
    return ap.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest grid percentile that still has
    TAIL_BEYOND samples beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_GRID:
        rank = max(1, -(-round(p * n * 10) // 1000))  # ceil(p n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def _probe() -> Fraction:
    """Fixed interpreter work of the kinds relquad does: small-int and
    Fraction arithmetic, dict updates, a sort."""
    d = {}
    x = Fraction(1, 3)
    for i in range(1, 400):
        k = (i * 2654435761) % 1009
        d[k] = d.get(k, 0) + i
        if i % 8 == 0:
            x = (x * i + 1) / (x + i)
    sorted(d.items())
    return x


def _probe_seconds() -> float:
    c0 = time.process_time()
    _probe()
    return time.process_time() - c0


def _at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by REF_PROBE_S over the median probe within
    SPEED_WINDOW ops of it."""
    return [
        t * REF_PROBE_S / statistics.median(probes[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i, t in enumerate(times)
    ]


class Runner:
    """Runs cycles of a workload's ops, timing and checking each op.

    Only the op itself is timed; checks and digests run between ops, like a
    client reading a reply before it sends the next request.  An op's time
    is the CPU time the process spent on it: relquad runs single-threaded and
    does no I/O, so on an idle machine this equals the op's wall time, and on
    a shared one it leaves out the time the machine gave to other work.
    A timed _probe() runs untraced before each op.  Wall times are kept for
    the report."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []  # CPU seconds per op
        self.wall: list[float] = []  # wall seconds per op
        self.probes: list[float] = []  # CPU seconds of the probe before each op
        self.failures: list[str] = []
        self.failed = 0
        self.first_cycle_digest = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_cycle(self, ops) -> None:
        w, tracer = self.workload, self.tracer
        digest = hashlib.sha256() if self.first_cycle_digest is None else None
        for op in ops:
            self.probes.append(_probe_seconds())
            if tracer is not None:
                tracer.op_id = self.attempted
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = w.execute(op)
                problems = None
            except Exception as exc:  # an escaping exception fails the op
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            finally:
                self.latencies.append(time.process_time() - c0)
                self.wall.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.active = False
            if problems is None:
                problems = w.check(op, out)
                if digest is not None:
                    digest.update(w.canonical(op, out).encode())
                    digest.update(b"\0")
            if problems:
                self.failed += 1
                self.failures += [f"{w.describe(op)}: {p}" for p in problems]
        if digest is not None:
            self.first_cycle_digest = digest.hexdigest()


def _cycle_count(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.CYCLE_SECONDS))


def _measure(workload, cycles, tracer=None):
    """Run the given cycles, or that many fresh ones.  Returns the runner,
    the cycles run and the wall time."""
    runner = Runner(workload, tracer)
    start = time.perf_counter()
    if isinstance(cycles, int):
        cycles = [workload.cycle() for _ in range(cycles)]
    for ops in cycles:
        runner.run_cycle(ops)
    return runner, cycles, time.perf_counter() - start


def _setup_seconds(args) -> tuple[list[float], list[float], list[float]]:
    """Set-up times of fresh processes that start the interpreter, import
    relquad, build the workload's inputs and exit: CPU seconds, the same
    scaled to the reference speed by the probes each process ran around its
    set-up, and wall seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"]
    cpu, scaled, wall = [], [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        wall.append(time.perf_counter() - t0)
        child = json.loads(done.stdout.splitlines()[-1])
        cpu.append(child["cpu_s"])
        scaled.append(child["cpu_s"] * REF_PROBE_S / child["probe_s"])
    return cpu, scaled, wall


def _end_to_end(args, workload, report) -> tuple[Runner, dict]:
    setup_cpu, setup, setup_wall = _setup_seconds(args)
    runner, cycles, wall = _measure(workload, _cycle_count(workload, args.seconds))
    lat = _at_reference_speed(runner.latencies, runner.probes)
    tail_p, tail = _tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = runner.latencies
    report.update(
        cycles=len(cycles),
        probe_median_s=statistics.median(runner.probes),
        cpu_ops_per_s=len(raw) / sum(raw),
        cpu_op_p50_ms=statistics.median(raw) * 1e3,
        wall_s=wall,
        wall_ops_per_s=len(raw) / sum(runner.wall),
        wall_op_p50_ms=statistics.median(runner.wall) * 1e3,
        samples=len(lat),
        tail_percentile=tail_p,
        tail_beyond=len(lat) - sum(1 for x in lat if x <= tail),
        fail_rate=runner.failed / runner.attempted,
        setup_samples_s=setup,
        setup_cpu_s=setup_cpu,
        setup_wall_s=setup_wall,
        digest=runner.first_cycle_digest,
    )
    return runner, metrics


def _per_layer(args, workload, report) -> tuple[Runner, dict]:
    from tracing import REPEAT_KEYS, Tracer

    # the first pass fills relquad's process-wide caches, so that the
    # untraced and traced passes that the overhead compares both run warm
    plain, cycles, _ = _measure(workload, _cycle_count(workload, args.seconds / 4))
    untraced, _, untraced_s = _measure(workload, cycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_s = _measure(workload, cycles, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = sum(_at_reference_speed(traced.latencies, traced.probes)) / sum(
        _at_reference_speed(untraced.latencies, untraced.probes)
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = out / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(str(stem))
    bases = {f"{name}.repeat_share": f"{name}.calls" for name in REPEAT_KEYS}
    bases["ideals.principal_generator.found_share"] = "ideals.principal_generator.calls"
    bases["ideals.Ideal.residues.elements"] = "ideals.Ideal.residues.calls"
    report.update(
        cycles=len(cycles),
        untraced_wall_s=untraced_s,
        traced_wall_s=traced_s,
        spans=len(tracer.start),
        span_file=str(stem.relative_to(ROOT)) + ".bin",
        ratio_bases={k: [metrics[k], base, metrics[base]] for k, base in bases.items()},
        digest=plain.first_cycle_digest,
    )
    # tracing must not change a single output
    if traced.first_cycle_digest != plain.first_cycle_digest:
        traced.failed += 1
        traced.failures.append("traced outputs differ from untraced outputs")
    for other in (untraced, traced):
        plain.failed += other.failed
        plain.failures += other.failures
        plain.latencies += other.latencies
    return plain, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    # a set-up process brackets its own set-up with probes, on its own core
    probes = [_probe_seconds() for _ in range(SETUP_PROBES)] if args.setup_only else []
    if sys.flags.optimize:
        # verdicts inside relquad still rest on assert, which -O strips
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "relquad" / "__init__.py").is_file():
        print(f"error: no relquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    if args.setup_only:
        r = resource.getrusage(resource.RUSAGE_SELF)
        cpu = r.ru_utime + r.ru_stime - sum(probes)
        probes += [_probe_seconds() for _ in range(SETUP_PROBES)]
        print(json.dumps({"cpu_s": cpu, "probe_s": statistics.median(probes)}))
        return 0

    import relquad

    if Path(relquad.__file__).resolve().parent != SRC / "relquad":
        print(f"error: relquad imported from {relquad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report = {
        "setup_in_process_s": time.perf_counter() - _T0,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
    }
    measure = _per_layer if args.trace else _end_to_end
    runner, metrics = measure(args, workload, report)
    if hasattr(workload, "fundamental_units"):
        report["fundamental_units"] = workload.fundamental_units()
    for line in runner.failures:
        print(f"FAIL {line}", file=sys.stderr)
    report["attempted"], report["failed"] = runner.attempted, runner.failed
    for name, value in metrics.items():
        print(f"{name} {value} {_unit(name)}")
    if not args.trace:
        print(f"fail_rate {report['fail_rate']} ratio")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
