"""The boundary type, its kernel quotients, and the entropy floor that fails.

The linear-ensemble argument lower-bounds the entropy of every kernel quotient
of the boundary list type.  This script builds that type, walks the quotients,
and shows which kernel is the bottleneck and why the stated floor is out of
reach for one of them.
"""

from thresholds.engine import kernel_slack_report
from thresholds.infomeasures import hq
from thresholds.subspaces import (
    gaussian_binomial,
    iter_rref_bases,
    kernel_entropy_table,
    ones_kernel_table,
)
from thresholds.typespace import LRSpec, TypeDist, bad_type

q, L, rho, delta = 2, 3, 0.1, 0.1
spec = LRSpec(q=q, ell=1, L=L, rho=rho)

# --- the boundary type ------------------------------------------------------
# bad_type pins each of the L list coordinates at exactly rho disagreement
# with the received word while making the coordinates as dependent as the
# constraints allow; its u-marginal (axis x of the joint table; axis y is the
# subset S) is the distribution the kernels act on.
jt = bad_type(spec)
tau = TypeDist(q, L, jt.marginal("x"))
print(f"boundary type over GF({q})^{L} at rho = {rho}")
print(f"  support size {int((tau.probs > 0).sum())} of {q**L}, "
      f"entropy {tau.entropy():.6f} (base {q})")
print()

# --- every proper kernel, one line each -------------------------------------
# Subspace counts are Gaussian binomials; for L = 3 over GF(2) there are
# 1 + 7 + 7 = 15 proper kernels to quotient by.  tau is invariant under
# u -> u + a*(1,...,1), so quotienting a kernel without the all-ones vector
# by one more line costs exactly one unit of entropy, and a kernel through it
# does at least as well (kernel_slack_report's docstring has the proof).  The
# report therefore pushes tau only through the zero kernel and the kernels
# marked "*", which contain the all-ones vector.
n_kernels = sum(gaussian_binomial(L, k, q) for k in range(L))
print(f"{n_kernels} proper kernels (* = contains the all-ones vector):")
print("kernel basis         dim(image)  entropy of quotient")
for k in range(L):
    H, D = kernel_entropy_table(tau, k)  # row t belongs to the t-th basis
    through = set(ones_kernel_table(tau, k)[2].tolist()) if k else set()
    for t, (basis, dim_image, entropy) in enumerate(
            zip(iter_rref_bases(q, L, k), D.tolist(), H.tolist())):
        rows = ",".join("".join(str(x) for x in row) for row in basis) or "-"
        mark = "*" if t in through else " "
        print(f"{mark} {rows:<18} {dim_image:^10}  {entropy:.6f}")
print()

# --- the slack report -------------------------------------------------------
# Each quotient entropy is compared against dim_image * h + logC - 1 + h - delta.
# The binding kernel is the two-coordinate sum: its quotient is the distribution
# of u_i + u_j, whose entropy h_2(2 rho (1 - rho)) does not grow with L, so the
# floor (which does not shrink with L either) stays unreachable.
rep = kernel_slack_report(q, 1, rho, L, delta)
det = rep["details"]
print(f"slack report at (q={q}, ell=1, rho={rho}, L={L}, delta={delta}):")
print(f"  kernels pushed     {rep['kernels']} of {n_kernels} (the zero kernel and the * rows)")
print(f"  min slack          {rep['min_slack']:+.6f}  -> pass = {rep['pass']}")
print(f"  worst kernel       {rep['worst_kernel'].basis}")
print(f"  per-dim minima     {det['per_dim_min_slack']}")
print(f"  identity entropy   {det['identity_kernel_entropy']:.6f} "
      f"(= L*h + logC - H(S|u) = {det['identity_predicted']:.6f})")
print(f"  per-dim floor form {det['per_dimension_floor_min_slack']:+.6f} "
      "(the rescaled floor every quotient does clear)")
print()

direct = hq(2, 2 * rho * (1 - rho)) - (2 * hq(2, rho) - delta)
print(f"hand check of the binding slack: h2(2r(1-r)) - (2 h2(r) - delta) = {direct:+.6f}")
