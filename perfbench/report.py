"""Run every workload over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10                  # end-to-end table
    python3 perfbench/report.py --seeds 1 --trace 1           # per-layer table
    python3 perfbench/report.py --seeds 1-10 --baseline perfbench/baseline.json

Each run is a separate ``run.py`` process with ``--seconds`` from
BENCHMARK.json, one after another, so each workload's peak RSS is its own.
A run that fails is recorded with its error and the next one starts.  Per
metric the table shows the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median; for end-to-end metrics also the bound from BENCHMARK.json,
flagged WIDE when the spread is not below a third of it.

``--baseline FILE`` records a baseline: two sets of the ``--seeds`` runs
with ``--trace 0``, one right after the other, then two traced runs at the
first seed.  FILE gets ``{"what", "env", "first_set", "second_set",
"traced"}``; each set maps a workload to its ``summary`` (per metric:
median, q1, q3, spread, n, unit) and its ``runs`` (seed, wall seconds and
the run's result and detail lines, or its error).  After the second set
it prints how far each median moved, flagged WORSE beyond the bound.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "wall_s": wall,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2])["detail"]}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def run_set(seeds: list[int], trace: int) -> dict:
    """Run every workload at every seed; print and return runs and summaries."""
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, trace)
            runs.append(run)
            status = run.get("error") or (
                f"correct={run['result']['correct']} attempted={run['result']['attempted']} "
                f"failed={run['result']['failed']}")
            print(f"{workload} seed={seed} wall={run['wall_s']:.1f}s {status}", flush=True)
        ok = [r for r in runs if "result" in r]
        summary = {}
        for name, first in (ok[0]["result"]["metrics"].items() if ok else ()):
            values = [r["result"]["metrics"][name]["value"] for r in ok]
            summary[name] = dict(summarise(values), unit=first["unit"])
        out[workload] = {"summary": summary, "runs": runs}
        print(f"{'':2}{'metric':48} {'unit':>10} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, m in summary.items():
            bound = BOUNDS.get(name)
            flag = "" if bound is None else f"{bound:6.3f}" + (
                "" if m["spread"] < bound / 3 else " WIDE")
            print(f"  {name:48} {m['unit']:>10} {m['median']:12.6g} {m['q1']:12.6g}"
                  f" {m['q3']:12.6g} {m['spread']:8.4f} {flag}", flush=True)
    return out


def print_shifts(first: dict, second: dict) -> None:
    """How far each end-to-end median moved from the first set to the second."""
    for workload, data in second.items():
        for name, m in data["summary"].items():
            base = first[workload]["summary"].get(name)
            if not base or not base["median"]:
                continue
            change = m["median"] / base["median"] - 1.0
            worse = -change if BETTER[name] == "higher" else change
            flag = " WORSE" if worse > BOUNDS[name] else ""
            print(f"shift {workload:14} {name:14} {100 * change:+7.2f} %{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="record a baseline to this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if not args.baseline:
        run_set(seeds, args.trace)
        return 0
    first = run_set(seeds, 0)
    second = run_set(seeds, 0)
    print_shifts(first, second)
    traced = run_set([seeds[0], seeds[0]], 1)
    runs = [r for s in (first, second) for d in s.values() for r in d["runs"] if "detail" in r]
    baseline = {
        "what": f"Two sets of seeds {args.seeds} per workload with --seconds "
                f"{SPEC['run_seconds']} --trace 0, then two --trace 1 runs at seed {seeds[0]}. "
                "summary: median, quartiles (statistics.quantiles n=4) and "
                "spread = (q3 - q1) / median.",
        "env": runs[0]["detail"]["env"] if runs else None,
        "first_set": first,
        "second_set": second,
        "traced": traced,
    }
    Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
