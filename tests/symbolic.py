"""Exact witnesses, by computer algebra, of claims that the acceptance suite
makes.  This module imports nothing from `solitonlab`, so no fault of the
package can hide in it.

Criterion 7: the algebra of pairwise-distinct level-surface Ricci
eigenvalues.  With eigenframe coefficients (a, b, c) and commutator
coefficients alpha, beta, gamma of the fiber frame, the bracket structure
forces

    alpha^2 = (a - b)^4 / (4 P),   beta = alpha (b - c)^2 / (a - b)^2,
    gamma = alpha (a - c)^2 / (a - b)^2,
    P = ((a - b)^2 + (b - c)^2 + (a - c)^2) / 2,

and the potential slope f' = N / (2 P), where

    N = a (b - c)^2 + b (c - a)^2 + c (a - b)^2.

Differentiating alpha^2 in s two ways, once through the propagation rules
b' - a' = a^2 - b^2 and c' - a' = a^2 - c^2 and once through
E_1(alpha) = alpha (c - a - b), leaves -(a - b)^4 N / (4 P^2), which is
-(a - b)^4 / (2 P) f'.  So the two agree only where f' = 0, which excludes
pairwise-distinct fiber eigenvalues on a non-Einstein soliton.

Each function returns what an identity leaves over, as an exact sympy
expression; the identity holds when that is 0.
"""

from functools import cache

import sympy as sp

a, b, c = sp.symbols("a b c", real=True)
A = sp.Symbol("A", real=True)  # a', left free
P = ((a - b) ** 2 + (b - c) ** 2 + (a - c) ** 2) / 2
N = a * (b - c) ** 2 + b * (c - a) ** 2 + c * (a - b) ** 2
ALPHA_SQ = (a - b) ** 4 / (4 * P)


def numerator_residual():
    """(i) The numerator of f' as an expanded sum, minus N."""
    expanded = (a * a * b + a * a * c + a * b * b + a * c * c
                + b * b * c + c * c * b - 6 * a * b * c)
    return sp.expand(expanded - N)


def frame_relation_residuals():
    """(ii) The three linear relations that force the commutator
    coefficients, each as its left side minus its right side."""
    alpha = (a - b) ** 2 / (2 * sp.sqrt(P))  # the positive root of ALPHA_SQ
    beta = alpha * (b - c) ** 2 / (a - b) ** 2
    gamma = alpha * (a - c) ** 2 / (a - b) ** 2
    relations = (((-alpha - gamma + beta) * (b - c), (a - c) * (alpha - gamma + beta)),
                 ((-beta - alpha + gamma) * (c - a), (b - a) * (beta - alpha + gamma)),
                 ((-gamma - beta + alpha) * (a - b), (c - b) * (gamma - beta + alpha)))
    return tuple(sp.cancel(lhs - rhs) for lhs, rhs in relations)


@cache
def exclusion_difference():
    """(iii) d(alpha^2)/ds through the propagation rules, with a' the free
    symbol A, minus 2 alpha^2 (c - a - b)."""
    rates = {a: A, b: A + a**2 - b**2, c: A + a**2 - c**2}
    d_alpha_sq = sum(sp.diff(ALPHA_SQ, x) * rate for x, rate in rates.items())
    return sp.cancel(d_alpha_sq - 2 * ALPHA_SQ * (c - a - b))


def exclusion_identity_residual():
    """(iii) What `exclusion_difference` leaves over -(a - b)^4 N / (4 P^2)."""
    return sp.cancel(exclusion_difference() + (a - b) ** 4 * N / (4 * P**2))


def exclusion_pins():
    """(iv) `exclusion_difference` at (3, 2, 1) and at (1, -1, 0), where
    N = 12 and N = 0, as exact rationals."""
    return tuple(exclusion_difference().subs({a: x, b: y, c: z})
                 for x, y, z in ((3, 2, 1), (1, -1, 0)))
