"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, in under a minute, with ``run.py --tiny``:

* BENCHMARK.json keeps to its format (names, units, bounds, counts);
* every workload prints exactly the end-to-end metrics with ``--trace 0``
  and exactly the per-layer metrics with ``--trace 1``, each with its unit,
  under a last line with exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, and reports ``correct`` true;
* two traced runs at one seed give identical per-layer counts and
  identical output digests, which also equal the untraced run's;
* in a directory holding only BENCHMARK.json and ``perfbench/``, run.py
  exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNT_UNITS = ("count", "evals/call")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the six keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "every name is well formed and used once")
    metrics = spec["end_to_end"] + spec["per_layer"]
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "every unit is well formed and every 'better' is higher or lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds.get("setup_s") == max(bounds.values()),
          "bounds lie in (0, 0.25] and setup_s has the largest")
    check(2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["end_to_end"]) <= 16
          and 1 <= len(spec["per_layer"]) <= 128, "workload and metric counts are in range")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "every workload has a one-line why")


def check_result(lines: list[str], expected: dict, label: str) -> dict | None:
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, ValueError, KeyError):
        check(False, f"{label}: last two lines are the detail and result JSON")
        return None
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct, attempted, failed, metrics")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: every metric name and unit is emitted, and no other")
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in result["metrics"].values()), f"{label}: every value is a finite number")
    check(result["correct"] is True and isinstance(result["attempted"], int)
          and result["attempted"] >= 1 and isinstance(result["failed"], int),
          f"{label}: correct with whole-number counts ({detail.get('problems')})")
    return {"result": result, "detail": detail}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines, err = run(ROOT, workload, 7, 0)
        check(code == 0, f"{workload}: --trace 0 exits 0 {err.strip()[-300:]}")
        plain = check_result(lines, end_to_end, f"{workload} --trace 0")
        traced = []
        for _ in range(2):
            code, lines, err = run(ROOT, workload, 7, 1)
            check(code == 0, f"{workload}: --trace 1 exits 0 {err.strip()[-300:]}")
            traced.append(check_result(lines, per_layer, f"{workload} --trace 1"))
        if plain and all(traced):
            a, b = (t["result"]["metrics"] for t in traced)
            counts = [n for n, unit in per_layer.items() if unit in COUNT_UNITS]
            check(all(a[n]["value"] == b[n]["value"] for n in counts),
                  f"{workload}: per-layer counts repeat exactly across traced runs")
            digests = [plain["detail"]["quality_digests"]] + [
                t["detail"]["quality_digests"] for t in traced]
            check(digests[0] == digests[1] == digests[2],
                  f"{workload}: outputs are identical untraced, traced and rerun")
            check(not traced[0]["detail"]["absent_hooks"], f"{workload}: every hook found")

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(bare, spec["workloads"][0]["name"], 1, 0)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the program's sources, run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
