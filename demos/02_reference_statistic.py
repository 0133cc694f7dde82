"""Precompute the invariant reference statistic and cache it in a table.

The likelihood ratio of the TRUE covariance against the sample estimate has
a distribution that depends only on the matrix dimension N and the sample
count K, so its median can be computed once per (N, K) pair and reused.
By the complex Bartlett decomposition (Goodman 1963) the log of that ratio
is a sum of N + 1 independent terms, so its moment generating function is
closed form; inverting it exactly gives the median and quantiles with no
draw and no seed.
"""

import tempfile
from pathlib import Path

from elcov import lr0_load, lr0_reference, lr0_store

print("median reference LR for a few (N, K) pairs:\n")
print("   N    K      lr0        q05        q95")
refs = []
for n, k in [(8, 8), (8, 16), (8, 32), (16, 32), (20, 40)]:
    ref = lr0_reference(n, k)
    refs.append(ref)
    quant = dict(ref.quantiles)
    print(f"  {n:2d}  {k:3d}   {ref.lr0:.6f}   {quant[0.05]:.6f}   {quant[0.95]:.6f}")

print("\nThe median falls as N grows toward K: the sample estimate overfits")
print("more, so the true covariance looks ever less likely in comparison.")

with tempfile.TemporaryDirectory() as tmp:
    table = Path(tmp) / "lr0_table.txt"
    for ref in refs:
        lr0_store(ref, table)
    loaded = lr0_load(20, 40, table)
    print(f"\nstored {len(refs)} records in {table}")
    print(f"lookup (20, 40) -> lr0 = {loaded.lr0:.6f} (round-trips exactly)")
    print("\ntable contents:")
    print(table.read_text())
