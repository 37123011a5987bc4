"""Run one benchmark workload against the revmax sources in ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The process is the workload's only process apart from the set-up probes.
It pins BLAS and OpenMP to one thread, times ``import revmax`` plus writing
the input files, issues one untimed warm-up command, and then issues
``revmax.cli.run(argv)`` in a closed loop of whole rounds until the commands
have taken ``S`` seconds.  Outputs are read back between commands, outside
the timed intervals, and checked against ``oracles`` once the loop ends.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced cycle of identical rounds until ``S`` seconds have
passed and reports per-layer figures per cycle, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("filtration-verify", "chain-spectra", "chain-maxima", "simulate-paths")
SETUP_PROBES = 6
# Host speed is expressed by the time of one speed probe; timings are
# rescaled to the speed at which the probe takes this long.
PROBE_REFERENCE_S = 1.5e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time the set-up and print it (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(name, seed, work):
    """Import revmax, build the workload and write its inputs; return both."""
    if not (SRC / "revmax" / "__init__.py").is_file():
        raise SystemExit(f"error: no revmax sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    start = perf_counter()
    import revmax.cli  # noqa: F401  (the import is part of what set-up times)
    import_s = perf_counter() - start
    import workloads  # the benchmark's own code, not timed

    if Path(revmax.__file__).resolve().parent != SRC / "revmax":
        raise SystemExit(f"error: revmax imported from {revmax.__file__}, not {SRC}")
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](work, seed)
    start = perf_counter()
    workload.setup()
    return workload, import_s + perf_counter() - start


def speed_probe():
    """Seconds for a fixed mix of interpreter work and small-array numpy calls.

    The mix resembles revmax's own: bytecode loops, bincounts and small
    matrix-vector products.  Nothing in it calls revmax.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 64)
    labels = np.arange(64) % 8
    matrix = np.outer(x, x) + np.eye(64)
    start = perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.bincount(labels, weights=x, minlength=8)[3])
        acc += float((matrix @ x)[5])
        acc += sum(j * 0.5 for j in range(30))
    return perf_counter() - start


class HostSpeed:
    """Rescales wall times to the host speed where a probe takes PROBE_REFERENCE_S.

    The same command on a shared virtual machine can run half again as fast
    in one minute as in another, with CPU time tracking wall time; the probe
    slows down with it.  Probes run between commands for about 2% of the
    time the last command took, and a command's wall time is multiplied by
    PROBE_REFERENCE_S over the mean probe time of the bursts just before and
    just after it.
    """

    def __init__(self):
        self.before = self.burst(5)

    @staticmethod
    def burst(k):
        return statistics.fmean(speed_probe() for _ in range(k))

    def rescale(self, elapsed):
        after = self.burst(max(1, math.ceil(0.02 * elapsed / PROBE_REFERENCE_S)))
        probe = (self.before + after) / 2.0
        self.before = after
        return elapsed * PROBE_REFERENCE_S / probe


class WallClock:
    """Leaves wall times as measured, for workloads the probe does not track."""

    @staticmethod
    def rescale(elapsed):
        return elapsed


def invoke(command, cli):
    """Issue one command; return its record and wall time."""
    from workloads import Record

    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.run(command.argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        rc = exc
    elapsed = perf_counter() - start
    outputs = {}
    for path in command.outputs:
        try:
            outputs[path] = Path(path).read_bytes()
        except OSError:
            outputs[path] = b""
    return Record(command, rc, stdout.getvalue(), outputs), elapsed


def run_rounds(workload, rounds, cli, speed, records, times):
    """Issue whole rounds; append records and (wall, rescaled) times; return items."""
    items = 0
    for r in rounds:
        for command in workload.round(r):
            record, elapsed = invoke(command, cli)
            records.append(record)
            times.append((elapsed, speed.rescale(elapsed)))
            items += command.items
    return items


def byte_identity(records):
    """Problems where one command line gave different output bytes."""
    first = {}
    problems = []
    for record in records:
        key = tuple(record.command.argv)
        if key in first and first[key] != record.outputs:
            problems.append(f"outputs differ between runs of {' '.join(key[:3])}")
        first.setdefault(key, record.outputs)
    return problems


def probe_setup(name, seed):
    """Rescaled set-up times of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name,
             "--seed", str(seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None):
    args = parse_args(argv)
    # The sidecar files revmax writes quote their paths, so a fixed-width pid
    # keeps cli.bytes_written the same from one run to the next.
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid():07d}"
    try:
        workload, setup_s = set_up(args.workload, args.seed, work)
        setup_s *= PROBE_REFERENCE_S / HostSpeed.burst(20)
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, args, setup_s):
    import revmax.cli as cli

    warm_up, _ = invoke(workload.round(0)[0], cli)
    records = []
    speed = HostSpeed() if workload.host_rescaled else WallClock()
    if args.trace:
        metrics = traced(workload, args, cli, speed, records)
    else:
        metrics = untraced(workload, args, cli, speed, records)
        metrics["setup_s"] = (statistics.median([setup_s] + probe_setup(
            args.workload, args.seed)), "s")

    failed = [r for r in records if r.failed]
    checked = [r for r in [warm_up] + records if not r.failed]
    if workload.repeat_all:
        runs = {}
        for record in checked:
            runs.setdefault(tuple(record.command.argv), []).append(record)
        checked += [invoke(group[0].command, cli)[0]
                    for group in runs.values() if len(group) == 1]
    problems = byte_identity(checked) + workload.check(checked)
    for record in failed:
        print(f"FAILED {' '.join(record.command.argv)}: {record.rc!r}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def untraced(workload, args, cli, speed, records):
    times = []
    items = 0
    r = 0
    while not times or sum(wall for wall, _ in times) < args.seconds:
        items += run_rounds(workload, [r], cli, speed, records, times)
        r += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [w for w, _ in times]
    scaled = [s for _, s in times]
    print(f"{args.workload} wall clock, not rescaled: {items / sum(wall):.6g} items/s,"
          f" op p50 {statistics.median(wall) * 1e3:.6g} ms,"
          f" host speed {sum(scaled) / sum(wall):.4f} of reference")
    return {
        "items_per_s": (items / sum(scaled), "items/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def traced(workload, args, cli, speed, records):
    from spans import Tracer

    tracer = Tracer()
    cycle = range(workload.cycle)
    plain, with_trace = [], []
    items = 0
    while sum(wall for wall, _ in plain + with_trace) < args.seconds:
        times = []
        items = run_rounds(workload, cycle, cli, speed, records, times)
        plain.append(tuple(map(sum, zip(*times))))
        times = []
        tracer.install()
        try:
            run_rounds(workload, cycle, cli, speed, records, times)
        finally:
            tracer.uninstall()
        with_trace.append(tuple(map(sum, zip(*times))))
    plain_s = statistics.median(s for _, s in plain)
    traced_s = statistics.median(s for _, s in with_trace)
    scale = sum(s for _, s in with_trace) / sum(w for w, _ in with_trace)
    metrics = tracer.layer_metrics(len(with_trace), scale)
    metrics.update({
        "trace.items_per_s_untraced": (items / plain_s, "items/s"),
        "trace.items_per_s_traced": (items / traced_s, "items/s"),
        "trace.overhead_pct": ((traced_s / plain_s - 1.0) * 100.0, "%"),
    })
    metrics.update({"markov.spectrum_m200_ms": (0.0, "ms")} | workload.reference(speed))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
