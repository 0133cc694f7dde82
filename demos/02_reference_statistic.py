"""Precompute the invariant reference statistic and cache it in a table.

The likelihood ratio of the TRUE covariance against the sample estimate has
a distribution that depends only on the matrix dimension N and the sample
count K, so its median can be computed once per (N, K) pair and reused.
By the complex Bartlett decomposition (Goodman 1963) the log of that ratio
is a sum of N + 1 independent terms, so its moment generating function is
closed form; inverting it exactly gives the median and quantiles with no
draw and no seed.  A reference and its table hold the log quantiles, which
stay finite where the linear median underflows.
"""

import tempfile
from pathlib import Path

from elcov import lr0_load, lr0_reference, lr0_store

print("median reference LR and its log quantiles for a few (N, K) pairs:\n")
print("   N    K      lr0     log q05   log q50   log q95")
refs = []
for n, k in [(8, 8), (8, 16), (8, 32), (16, 32), (20, 40)]:
    ref = lr0_reference(n, k)
    refs.append(ref)
    q05, _, q50, _, q95 = ref.log_quantiles
    print(f"  {n:2d}  {k:3d}   {ref.lr0:.6f}   {q05:7.3f}   {q50:7.3f}   {q95:7.3f}")

print("\nThe median falls as N grows toward K: the sample estimate overfits")
print("more, so the true covariance looks ever less likely in comparison.")

with tempfile.TemporaryDirectory() as tmp:
    table = Path(tmp) / "lr0_table.txt"
    for ref in refs:
        lr0_store(ref, table)
    loaded = lr0_load(20, 40, table)
    print(f"\nstored {len(refs)} records in {table}")
    assert loaded == refs[-1]
    print(f"lookup (20, 40) -> log lr0 = {loaded.log_lr0!r} (round-trips exactly)")
    print("\ntable contents:")
    print(table.read_text())
