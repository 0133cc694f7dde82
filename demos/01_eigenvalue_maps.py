"""Tour of the five eigenvalue-map estimators on one toy spectrum.

Every estimator shares the eigenvectors of the sample covariance and only
reshapes its eigenvalues; this script prints the reshaped spectra side by
side together with their likelihood ratios against the raw sample.
"""

import numpy as np

from elcov import (
    SampleStats,
    cncml,
    cncml_u_star,
    condition_number,
    fml,
    lr_value,
    lsmi,
    rcml,
    smi,
)

d = np.array([24.0, 9.0, 3.5, 0.8, 0.45, 0.3])
sigma2 = 1.0
kmax = 6.0

stats = SampleStats.from_sample_covariance(np.diag(d).astype(complex), k=12, sigma2=sigma2)

print(f"sample eigenvalues : {d}")
print(f"noise floor sigma2 : {sigma2},  condition bound kmax: {kmax}\n")

estimates = [
    ("SMI (raw sample)", smi(stats)),
    ("FML (floor clip)", fml(stats)),
    ("RCML rank 2", rcml(stats, 2)),
    ("RCML rank 4", rcml(stats, 4)),
    (f"CNCML kmax={kmax:g}", cncml(stats, kmax)),
    ("LSMI beta=2", lsmi(stats, 2.0)),
]

for label, est in estimates:
    lr = lr_value(est.lambdas, stats.d)
    cond = condition_number(est) if est.lambdas[-1] > 0 else float("inf")
    lam = ", ".join(f"{x:7.3f}" for x in est.lambdas)
    print(f"{label:18s} lr={lr:8.5f}  cond={cond:8.2f}  [{lam}]")

case = cncml_u_star(stats, kmax)
print(
    f"\nCNCML inner solution: case={case.case_id.value}, u*={case.u_star:.6f}, "
    f"pinned high/kept/pinned low = {case.p}/{case.q - case.p}/{stats.n - case.q}"
)
print("Note how the constrained maps keep the dominant structure but cap the spread.")
