"""
The reduced first-order soliton system
======================================

For the doubly-warped ansatz the soliton equation collapses to a first-order
system in (a, b, f', h) along s.  This demo integrates it from singular
steady and from product initial data, watching the derived identities stay
conserved and the branch detector name the solution family.  The algebra
that rules out pairwise-distinct fiber eigenvalues is proved exactly, by
computer algebra, in acceptance criterion 7 (``tests/symbolic.py``).
"""

from solitonlab import branch_label, integrate
from solitonlab.reduced import product_state, singular_steady_state

for title, state in (("singular steady", singular_steady_state(1.0)),
                     ("product (lam = -1)", product_state(1.0, -1.0))):
    traj = integrate(state, 2.0, 1e-3)
    end = traj.final
    worst = traj.identities.evidence().max_abs
    print(f"{title}: integrated s = 1 -> 2 in {len(traj.states) - 1} steps")
    print(f"  endpoint   a = {end.a:.12f}  b = {end.b:.12f}  f' = {end.fp:.12f}")
    print(f"  max identity residual along the way: {worst:.2e}")
    print(f"  branch label: {branch_label(traj, 1e-10)}\n")

print("closed forms at s = 2: singular steady a = 1/6, b = f' = 1/3;")
print("product a = 1/2, f' = -2")
print("""
Pairwise-distinct fiber eigenvalues force a potential slope f', and
differentiating the commutator coefficient alpha^2 in s two ways leaves
-(a-b)^4 f' / (2P).  So a soliton with three distinct level-surface
eigenvalues has constant potential: the pairwise-distinct case cannot occur
away from the Einstein regime.  Acceptance criterion 7 proves this identity
exactly, by computer algebra (tests/symbolic.py).
""")
