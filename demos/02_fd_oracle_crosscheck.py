"""
Finite-difference oracle vs closed forms
========================================

The fd engine knows nothing about warped structure: it differentiates raw
metric components on a coordinate grid.  Here it re-derives the curvature of
the singular steady metric and reports how far it lands from the closed
forms, then shows 4th-order convergence under spacing halving, and finally
catches a deliberately broken metric through the Codazzi residual.
"""

import math

import numpy as np

from solitonlab import (broken_family, family_eigenvalues, fd_curvature,
                        grid_from_family, singular_steady_family, sym_eigvals,
                        tensor_norm)

fam = singular_steady_family()

for n_s in (65, 129):
    h = 1.5 / (n_s - 1)
    grid = grid_from_family(fam, (0.5, 2.0), n_s,
                            r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
    node = (n_s // 2, 4, 4, 4)
    s = grid.axes[0][node[0]]
    bundle = fd_curvature(grid, node)
    fd_eigs = sym_eigvals(bundle.ric[None], bundle.g[None])[0]
    cf = np.array(family_eigenvalues(fam, s))
    dev = np.max(np.abs(fd_eigs - cf[:4])) / abs(cf[4])
    print(f"n_s = {n_s:4d}  spacing = {h:.5f}  s = {s:.4f}  "
          f"Ricci rel deviation = {dev:.3e}  "
          f"Codazzi norm = {math.sqrt(tensor_norm(bundle.codazzi_residual, bundle.g)):.3e}")

print("\nThe deviation drops by ~16x per spacing halving (4th-order stencils).")

broken = broken_family()
h = 1.5 / 128
grid = grid_from_family(broken, (0.5, 2.0), 129,
                        r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
bundle = fd_curvature(grid, (64, 4, 4, 4))
print(f"\nbroken metric ds^2 + s^2 dt^2 + s*gt:  "
      f"Codazzi norm = {math.sqrt(tensor_norm(bundle.codazzi_residual, bundle.g)):.3f}  "
      "(a true divergence-free-Weyl metric would give ~1e-7 here)")
