"""Threshold rates for list decoding and list recovery of random code ensembles.

Core layers:

- fields:        GF(q) arithmetic and vector/index packing
- infomeasures:  entropy functionals and joint-distribution measures
- typespace:     distributions over GF(q)^L, the boundary type, orbit classes
- subspaces:     canonical subspace enumeration and quotient maps
- engine:        threshold bounds, curve generators, verification reports
- simulate:      Monte Carlo ensembles, exact decodability checks, greedy builds
- cli:           the `thresholds` console entry point
"""

__version__ = "0.1.0"
