"""
Closed-form curvature of the structured metric families
========================================================

Walks through the four local soliton types and prints their frame-diagonal
Ricci eigenvalues, scalar curvature and Weyl norm at a few values of the
arc-length variable s.
"""

import numpy as np

from solitonlab import (cylinder_family, family_eigenvalues, family_weyl_sq,
                        gaussian_family, product_family, singular_steady_family,
                        sphere_family)

families = [
    ("round 4-sphere (Einstein, lam = 3)", sphere_family()),
    ("plane x surface product, lam = -1", product_family(-1.0)),
    ("singular steady metric", singular_steady_family()),
    ("Gaussian soliton chart, lam = 1", gaussian_family(1.0)),
    ("cylinder R x M^3, lam = 2", cylinder_family(2.0)),
]

for title, fam in families:
    sol = fam.soliton
    print(f"\n{title}   [lambda = {sol.lam:g}]")
    print(f"{'s':>5} {'lam1':>12} {'lam2':>12} {'lam3':>12} {'lam4':>12} "
          f"{'R':>12} {'|W|^2':>12}")
    for s in (0.5, 1.0, 2.0):
        l1, l2, l3, l4, R = family_eigenvalues(fam, s)
        w2 = family_weyl_sq(fam, s)
        print(f"{s:5.2f} {l1:12.6f} {l2:12.6f} {l3:12.6f} {l4:12.6f} "
              f"{R:12.6f} {w2:12.6f}")

print("""
Things to notice:
 * the sphere is Einstein: all four eigenvalues equal, f constant;
 * the product keeps R = 2*lam exactly, with a rank-2 kernel (the flat plane);
 * the singular steady metric has R = -4/(9 s^2): curvature concentrates at
   s = 0 and |W|^2 * s^4 stays constant at 16/243;
 * both type-(iv) instances are conformally flat: |W|^2 = 0.
""")

fam = singular_steady_family()
print("singular steady scaling check: |W|^2 * s^4 =",
      [round(float(family_weyl_sq(fam, s) * s**4), 12) for s in np.linspace(0.5, 2, 4)])
