"""Threshold rate curves: closed forms, the generic optimizer, and who wins.

Prints the plain-ensemble and linear-ensemble threshold rates side by side on
a rho grid, confirms the generic optimizer reproduces the closed forms,
and writes the two-curve comparison CSV that justifies the binary bound.
"""

import sys

import numpy as np

from thresholds.engine import (
    bound_rlc_binary_l4,
    bound_rlc_qary_l3,
    dominance_curves,
    rc_threshold_generic,
    rlc_lower_generic,
    threshold_rc_binary_l4,
    threshold_rc_qary_l3,
)
from thresholds.typespace import LRSpec

# --- binary, list size 4 ----------------------------------------------------
# The story in one table: the linear ensemble tolerates a strictly higher
# rate than the plain ensemble at every radius, and the generic optimizer
# (which knows nothing about the closed forms) lands on the same numbers.

print("binary, L = 4      linear       plain        generic(linear)  generic(plain)")
for rho in (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
    spec = LRSpec(q=2, ell=1, L=4, rho=rho)
    lin, pl = bound_rlc_binary_l4(rho), threshold_rc_binary_l4(rho)
    glin = rlc_lower_generic(spec).value
    gpl = rc_threshold_generic(spec).value
    print(f"rho = {rho:<5}      {lin:.9f}  {pl:.9f}  {glin:.9f}      {gpl:.9f}")
    assert abs(lin - glin) < 1e-9 and abs(pl - gpl) < 1e-9

print()

# --- q-ary, list size 3 -----------------------------------------------------
print("q-ary, L = 3       linear       plain        gap")
for q in (3, 5, 9):
    for rho in (0.1, 0.25):
        lin, pl = bound_rlc_qary_l3(q, rho), threshold_rc_qary_l3(q, rho)
        print(f"q = {q}, rho = {rho:<5}  {lin:.9f}  {pl:.9f}  {lin - pl:.3e}")
print()

# --- the dominance picture behind the binary bound --------------------------
# The binary linear bound subtracts a compression term that is only valid
# while the full-support optimum (blue) stays above the low-dimension boundary
# curve (orange).  dominance_curves evaluates both; the margin never closes.

grid = np.arange(0.01, 0.31, 0.01)
blue, orange, ok = dominance_curves(grid)
margin = blue.values - orange.values
print(f"dominance on {grid.size} points: all ok = {all(ok)}, "
      f"min margin = {margin.min():.6f} (at rho = {grid[margin.argmin()]:.2f})")

# The same data as CSV, for plotting elsewhere.  Pass a filename to keep it.
if len(sys.argv) > 1:
    out = sys.argv[1]
    with open(out, "w") as fh:
        fh.write("rho,blue,orange\n")
        for r, b, o in zip(grid, blue.values, orange.values):
            fh.write(f"{r},{b},{o}\n")
    print(f"wrote {out}")
