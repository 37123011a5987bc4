"""Steadiness check: run every workload many times and summarise the spread.

    python3 perfbench/steady.py

For every workload of ``BENCHMARK.json`` it makes two sets of ten runs.
Each run is a fresh ``perfbench/run.py`` process with its own seed, 200-209
in the first set and 1200-1209 in the second, and the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric the command prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound, and how far the second
set's median moved from the first, in the worse direction.  Two traced runs
per workload on seed 200 follow; the command prints their per-layer figures
and the tracing overhead, and checks that the per-layer counts repeat
exactly.  All results are written to ``.perfbench_out/steady-<time>.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUNS = 10
SETS = 2
SEED_BASE = 200  # set s uses seeds SEED_BASE + 1000 * s + i
TRACED = 2


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall,
                  wall_clock=[line for line in lines if "not rescaled" in line])
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, first, later):
    """Relative change of a median in the metric's worse direction."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    report = {"run_seconds": seconds, "workloads": {}}

    for workload in names:
        entry = report["workloads"][workload] = {"sets": [], "traced": []}
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                result = run_once(workload, SEED_BASE + 1000 * s + i, seconds, 0)
                runs.append(result)
                print(f"{workload} set {s} seed {result['seed']}: correct={result['correct']}"
                      f" attempted={result['attempted']} failed={result['failed']}"
                      f" wall={result['wall_s']:.1f}s", flush=True)
            summary = {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs])
                       for m in metrics}
            entry["sets"].append({"runs": runs, "summary": summary})
            print(f"\n{workload}, set {s}, {RUNS} runs")
            print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
            for m in metrics:
                row = summary[m["name"]]
                print(f"  {m['name']:<14}{row['median']:>14.6g}{row['q1']:>14.6g}"
                      f"{row['q3']:>14.6g}{row['spread']:>9.4f}{m['bound']:>7}")
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"  failed share per run: {sorted(shares)}", flush=True)
            if s:
                for m in metrics:
                    first = entry["sets"][0]["summary"][m["name"]]["median"]
                    later = summary[m["name"]]["median"]
                    print(f"  {m['name']}: median worse than set 0 by "
                          f"{worse_by(m, first, later):+.4f} (bound {m['bound']})")
        for _ in range(TRACED):
            result = run_once(workload, SEED_BASE, seconds, 1)
            entry["traced"].append(result)
        if entry["traced"]:
            first = entry["traced"][0]["metrics"]
            print(f"\n{workload}, {len(entry['traced'])} traced runs on seed {SEED_BASE}")
            for name, value in first.items():
                others = [t["metrics"][name]["value"] for t in entry["traced"][1:]]
                print(f"  {name:<34}{value['value']:>14.6g} {value['unit']:<8}"
                      + " ".join(f"{v:.6g}" for v in others))
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] in ("count", "bytes")}
                      for t in entry["traced"]]
            print(f"  per-layer counts repeat exactly: {all(c == counts[0] for c in counts)}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
