"""The boundary type, its kernel quotients, and the entropy floor that fails.

The linear-ensemble argument lower-bounds the entropy of every kernel quotient
of the boundary list type.  This script builds that type, walks the quotients,
and shows which kernel is the bottleneck and why the stated floor is out of
reach for one of them.
"""

from thresholds.engine import kernel_slack_report
from thresholds.infomeasures import hq
from thresholds.subspaces import entropy_over_kernels, gaussian_binomial
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
# 1 + 7 + 7 = 15 proper kernels to quotient by.
n_kernels = sum(gaussian_binomial(L, k, q) for k in range(L))
print(f"{n_kernels} proper kernels:")
print("kernel basis         dim(image)  entropy of quotient")
for rec in entropy_over_kernels(tau):
    rows = ",".join("".join(str(x) for x in row) for row in rec["kernel"].basis) or "-"
    print(f"  {rows:<18} {rec['dim_image']:^10}  {rec['entropy']:.6f}")
print()

# --- the slack report -------------------------------------------------------
# Each quotient entropy is compared against dim_image * h + logC - 1 + h - delta.
# The binding kernel is the two-coordinate sum: its quotient is the distribution
# of u_i + u_j, whose entropy h_2(2 rho (1 - rho)) does not grow with L, so the
# floor (which does not shrink with L either) stays unreachable.
rep = kernel_slack_report(q, 1, rho, L, delta)
det = rep["details"]
print(f"slack report at (q={q}, ell=1, rho={rho}, L={L}, delta={delta}):")
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
