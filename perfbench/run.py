"""Run one elcov benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ref-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics of a separate traced run.  The line before it
is a ``{"detail": ...}`` record: environment, sample counts, digests and any
problems found.  Scratch files (configs, lr0 table, CSVs, spans) go to
``.perfbench_run/<workload>/``.  ``--tiny`` shrinks every size for a quick
self-check; its numbers are not measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"  # one load-generating process, one BLAS thread: steadier than nproc


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elcov" / "__init__.py").is_file():
        print(f"error: no elcov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / args.workload
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir, args.tiny)
    try:
        if args.trace:
            result, detail, tracer = runner.trace()
            tracer.dump(workdir / "spans.csv")
        else:
            result, detail = runner.measure(args.seconds)
    except Exception:  # the workload failed: report it and exit non-zero
        traceback.print_exc()
        print(f"error: workload {args.workload} failed", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, tiny=args.tiny,
                  env=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
