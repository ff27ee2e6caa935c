"""Record the benchmark's baseline: repeated untraced runs plus one traced run.

Run from the root of a checkout:

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

For every workload in BENCHMARK.json it runs bench.py once per seed 1-10,
one process at a time, and reports each end-to-end metric's median,
quartiles and spread (quartile distance over median, as the regression
check computes it) next to the metric's bound. It then makes one traced run
per workload at seed 0, the desk setup, and stores the per-layer table with
the run's digests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 0


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench.py process; its stdout lines, parsed, plus its elapsed time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    out = {"elapsed_s": elapsed, "result": json.loads(lines[-1]), "units": []}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "env":
            out["env"] = json.loads(rest)
        elif key == "unit":
            out["units"].append(json.loads(rest.partition(" ")[2]))
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write; stdout only if omitted")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {"seeds": SEEDS, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [bench(name, s, spec["run_seconds"], 0) for s in SEEDS]
        report.setdefault("env", runs[0]["env"])
        entry = {
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs],
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                **spread(values), "unit": metric["unit"], "bound": metric["bound"]}
            s = entry["end_to_end"][metric["name"]]
            print(f"{name:16} {metric['name']:18} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']})", flush=True)
        traced = bench(name, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced"] = {
            "seed": TRACE_SEED,
            "elapsed_s": round(traced["elapsed_s"], 2),
            "digests": traced["units"][0]["digests"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        print(f"{name:16} traced run: {traced['elapsed_s']:.1f} s, overhead "
              f"{entry['traced']['per_layer']['harness.trace_overhead']:+.3f}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
