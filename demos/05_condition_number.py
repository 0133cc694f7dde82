"""Condition-number bound selection on the exact LR path.

The LR of the condition-bounded estimate increases monotonically with the
bound until the constraint stops binding.  Between the path's breakpoints,
where a clip level crosses a sample eigenvalue, its log LR is closed form,
so the selector scores every breakpoint in one vector pass, picks the
segment that crosses the reference level and finishes with a few Newton
steps on ``log kmax`` there.
"""

import math

import numpy as np

from elcov import (
    SampleStats,
    cncml,
    condition_number,
    derive_rng,
    lr_value,
    sample_covariance,
    sample_training,
    select_kmax,
    sqrt_factor,
)

n, k = 10, 30
d_true = np.array([80.0, 30.0, 8.0] + [1.0] * (n - 3))
z = sample_training(sqrt_factor(np.diag(d_true).astype(complex)), k, derive_rng(11, "cn"))
stats = SampleStats.from_sample_covariance(sample_covariance(z), k, sigma2=1.0)
d = stats.d

k_ml = d[0] / stats.sigma2
print(f"sample eigenvalue spread d1/dN = {d[0] / d[-1]:.1f}, ML bound d1/sigma2 = {k_ml:.2f}\n")

print("LR of the bounded estimate as the bound sweeps:")
for km in np.linspace(1.0, k_ml, 8):
    est = cncml(stats, float(km))
    print(
        f"  kmax = {km:7.2f}   lr = {lr_value(est.lambdas, d):9.6f}"
        f"   achieved condition number = {condition_number(est):7.2f}"
    )

lr_top = lr_value(cncml(stats, k_ml).lambdas, d)
lr0 = math.exp(0.6 * math.log(lr_top) + 0.4 * math.log(lr_value(cncml(stats, 1.0).lambdas, d)))
sel = select_kmax(stats, lr0)
est = sel.estimate
print(f"\ntarget lr0 = {lr0:.6f}")
print(f"path: {len(sel.visited) - 1} breakpoints plus the root, last Newton step {sel.final_step:.2e}")
print(f"selected bound  : {sel.kmax_hat:.4f}")
print(f"lr at selection : {lr_value(est.lambdas, d):.6f}")
print(f"condition number: {condition_number(est):.4f}")
