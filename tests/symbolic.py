"""Exact witnesses, by computer algebra, of claims that the tests make.
This module imports nothing from `solitonlab`, so no fault of the package
can hide in it.

The closed-form curvature: `frame_curvature` derives the frame Riemann
tensor of a diagonal 4-metric, and `family_curvature` specialises it to
either block ansatz with exact profiles p(s), h(s), so no float enters.

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

The reduced systems: `soliton_tensor` is Ric + Hess f - lambda g of either
ansatz, with the profiles and their derivatives replaced by the reduced
variables.  `dw_flow` solves it on the doubly-warped ansatz, with
p''/p = h''/h, for (a', b', f'', h'), and `warp3_flow` on the warped product
for (h'', f'').  `linear_variety` solves an identity C and its derivative
C' along a flow for f' and k, naming the divisors that this takes.

Harmonic Weyl curvature: `codazzi` is the Codazzi tensor of A = Ric - (R/6) g
of either ansatz, which vanishes exactly where delta W = 0;
`family_curvature` gives it at exact profiles, and `dw_codazzi` along a
doubly-warped flow.
"""

from functools import cache
from itertools import product

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


# ---------------------------------------------------------------------------
# the frame curvature of the block ansaetze

s, r, theta, phi, k = sp.symbols("s r theta phi k", real=True)
_p, _h, _u = (sp.Function(name, positive=True) for name in "phu")
_d = lambda i, j: int(i == j)  # the Kronecker delta


def frame_curvature(diagonal, coords):
    """(gamma, riemann) of g = diag(e_0^2, .., e_3^2), ``diagonal`` = (e_0, ..,
    e_3) in ``coords``: gamma[a, b, c] = Gamma^a_bc and riemann[i, j, k, l] =
    <R(E_i, E_j) E_k, E_l> in the frame E_i = d/dx^i / e_i, with R(X, Y) =
    [grad_X, grad_Y] - grad_[X,Y]; riemann[i, j, j, i] is a sectional."""
    g, x, n = [e**2 for e in diagonal], coords, range(4)
    gamma = {(a, b, c): sp.cancel((_d(a, c) * sp.diff(g[a], x[b]) + _d(a, b) * sp.diff(g[a], x[c])
                                   - _d(b, c) * sp.diff(g[b], x[a])) / (2 * g[a]))
             for a, b, c in product(n, repeat=3)}

    def component(i, j, m, l):  # g_ll R^l_mij / (e_i e_j e_m e_l)
        rie = (sp.diff(gamma[l, j, m], x[i]) - sp.diff(gamma[l, i, m], x[j])
               + sum(gamma[l, i, e] * gamma[e, j, m] - gamma[l, j, e] * gamma[e, i, m] for e in n))
        return sp.cancel(g[l] * rie / (diagonal[i] * diagonal[j] * diagonal[m] * diagonal[l]))

    return gamma, {q: component(*q) for q in product(n, repeat=4)}


@cache
def _frame(warped3: bool):
    """(diagonal, coords, gamma, riemann) of g = diag(1, p^2, h^2, h^2 u^2) on
    (s, t, r, theta) or, on warped3, diag(1, h^2, h^2 u^2, h^2 u^2 sin^2
    theta) on (s, r, theta, phi), by `frame_curvature`."""
    p, h, u = _p(s), _h(s), _u(r)
    diagonal, coords = (((1, h, h * u, h * u * sp.sin(theta)), (s, r, theta, phi)) if warped3
                        else ((1, p, h, h * u), (s, sp.Symbol("t"), r, theta)))
    diagonal = tuple(map(sp.sympify, diagonal))
    return (diagonal, coords, *frame_curvature(diagonal, coords))


def _fiber(x):
    """x after u'' = -k u and u'^2 = 1 - k u^2, of which only even powers of
    u' are left."""
    u, up = _u(r), sp.Symbol("up")
    return sp.cancel(sp.expand(x.xreplace({u.diff(r, 2): -k * u, u.diff(r): up}))
                     .subs(up**2, 1 - k * u**2))


@cache
def _ansatz(warped3: bool):
    """(zeta, riemann) of `_frame` after `_fiber`; zeta_i = <grad_{E_i} E_1,
    E_i> is Gamma^i_i1, as e_1 = 1."""
    _, _, gamma, riemann = _frame(warped3)
    return (tuple(_fiber(gamma[i, i, 0]) for i in (1, 2, 3)),
            {q: _fiber(x) for q, x in riemann.items()})


@cache
def codazzi(warped3: bool):
    """C[i, j, m] = (grad_{E_i} A)(E_j, E_m) - (grad_{E_j} A)(E_i, E_m) of A =
    Ric - (R/6) g of `_ansatz`, in its frame, after `_fiber`.  In dimension 4
    div W is a multiple of the exterior covariant derivative of A, so
    delta W = 0 exactly where C = 0."""
    diagonal, x, gamma, _ = _frame(warped3)
    ric = ricci(_ansatz(warped3)[1])
    # A_ii in the coordinates (A is diagonal, as Ric is); the terms
    # Gamma^m_ij A_mm of (grad_i A)_jm - (grad_j A)_im cancel
    coord = [(ric[i, i] - sum(ric[j, j] for j in range(4)) / 6) * e**2
             for i, e in enumerate(diagonal)]
    return {(i, j, m): _fiber((_d(j, m) * sp.diff(coord[j], x[i]) - gamma[j, i, m] * coord[j]
                               - _d(i, m) * sp.diff(coord[i], x[j]) + gamma[i, j, m] * coord[i])
                              / (diagonal[i] * diagonal[j] * diagonal[m]))
            for i, j, m in product(range(4), repeat=3)}


@cache
def family_curvature(p, h, k_value):
    """(zeta, riemann, codazzi): `_ansatz` and `codazzi` at the profiles p(s),
    h(s), expressions in `s` (p None on warped3), and the fiber curvature
    ``k_value``, as expressions in s."""
    zeta, riemann = _ansatz(p is None)
    values = {_h(s): h, k: k_value, **({} if p is None else {_p(s): p})}
    on = lambda x: sp.cancel(x.subs(values).doit())
    return (tuple(map(on, zeta)), {q: on(x) for q, x in riemann.items()},
            {q: on(x) for q, x in codazzi(p is None).items()})


def ricci(riemann):
    """Ric_jl = sum_i riemann[j, i, i, l]."""
    return {(j, l): sum(riemann[j, i, i, l] for i in range(4))
            for j, l in product(range(4), repeat=2)}


def weyl_sq(riemann):
    """|W|^2 of a frame Riemann tensor, W = R + (d_ik A_jl - d_il A_jk + d_jl A_ik
    - d_jk A_il) / 2 - (R / 6)(d_ik d_jl - d_il d_jk) with A = Ric, d = delta."""
    a = ricci(riemann)
    r6 = sum(a[i, i] for i in range(4)) / 6
    return sum((x + (_d(i, m) * a[j, l] - _d(i, l) * a[j, m] + _d(j, l) * a[i, m]
                     - _d(j, m) * a[i, l]) / 2 - r6 * (_d(i, m) * _d(j, l) - _d(i, l) * _d(j, m))) ** 2
               for (i, j, m, l), x in riemann.items())


# ---------------------------------------------------------------------------
# the reduced soliton systems: Ric + Hess f = lambda g on either ansatz

fp, lam = sp.symbols("fp lambda", real=True)  # f' and the soliton constant
h = sp.Symbol("h", positive=True)  # the value of the profile h(s)
hp, B, F2, H2 = sp.symbols("hp B F2 H2", real=True)  # h', and b', f'', h'' left free


def soliton_tensor(warped3, jets):
    """Ric + Hess f - lambda g of `_ansatz` for a potential f(s), as a dict
    (i, j) -> expression in its frame, after ``jets`` replaces the profiles
    and their derivatives; f' is `fp` and f'' is `F2`.  Hess f is diag(f'',
    zeta_i f'): Hess f(E_i, E_i) = -<grad_{E_i} E_i, d/ds> f' = zeta_i f',
    and a diagonal metric leaves no mixed entry."""
    zeta, riemann = _ansatz(warped3)
    ric, hess = ricci(riemann), (F2, *(z * fp for z in zeta))
    return {(i, j): sp.cancel((ric[i, j] + _d(i, j) * (hess[i] - lam)).xreplace(jets))
            for i, j in product(range(4), repeat=2)}


@cache
def _dw_tensor():
    """`soliton_tensor` of the doubly-warped ansatz in a = p'/p and b = h'/h,
    with a' = `A` and b' = `B`; p itself cancels."""
    p, hs, p0 = _p(s), _h(s), sp.Symbol("p", positive=True)
    return soliton_tensor(False, {p.diff(s, 2): (A + a**2) * p0, p.diff(s): a * p0, p: p0,
                                  hs.diff(s, 2): (B + b**2) * h, hs.diff(s): b * h, hs: h})


@cache
def dw_flow():
    """(a', b', f'', h') of the doubly-warped soliton: the solution of its
    components (0, 0) and (1, 1) and of p''/p = h''/h; h' = b h is the
    definition of b.  p''/p = h''/h alone is not delta W = 0 (`codazzi`),
    but along this flow delta W vanishes where the ``linear`` identity C and
    its derivative C' do (`dw_codazzi`)."""
    t = _dw_tensor()
    (sol,) = sp.solve([t[0, 0], t[1, 1], A + a**2 - B - b**2], [A, B, F2], dict=True)
    return sol[A], sol[B], sol[F2], b * h


def dw_soliton_tensor(rhs):
    """`soliton_tensor` of the doubly-warped ansatz along the flow rhs = (a',
    b', f'', h')."""
    return {q: sp.cancel(x.xreplace(dict(zip((A, B, F2), rhs)))) for q, x in _dw_tensor().items()}


@cache
def _warp3_tensor():
    """`soliton_tensor` of the warped product in h, h' = `hp` and h'' = `H2`."""
    hs = _h(s)
    return soliton_tensor(True, {hs.diff(s, 2): H2, hs.diff(s): hp, hs: h})


@cache
def warp3_flow():
    """(h'', f'') of the warped-product soliton: the solution of its
    components (0, 0) and (1, 1)."""
    t = _warp3_tensor()
    (sol,) = sp.solve([t[0, 0], t[1, 1]], [H2, F2], dict=True)
    return sol[H2], sol[F2]


def warp3_soliton_tensor(rhs):
    """`soliton_tensor` of the warped product along rhs = (h'', f'')."""
    return {q: sp.cancel(x.xreplace(dict(zip((H2, F2), rhs)))) for q, x in _warp3_tensor().items()}


def flow_derivative(expr, rhs):
    """d expr / ds along the doubly-warped flow (a, b, f', h)' = rhs, with
    lambda and k constant."""
    return sum(sp.diff(expr, x) * v for x, v in zip((a, b, fp, h), rhs))


def dw_codazzi(rhs):
    """`codazzi` of the doubly-warped ansatz along the flow rhs = (a', b',
    f'', h'): the derivatives of the profiles as p^(n) = q_n p, with q_0 = 1
    and q_(n+1) = q_n' + a q_n along rhs, and h^(n) the same with b."""
    jets, p0 = {}, sp.Symbol("p", positive=True)
    for f, value, rate in ((_p(s), p0, a), (_h(s), h, b)):
        q = sp.Integer(1)
        for n in range(4):
            jets[f.diff(s, n)] = q * value
            q = sp.cancel(flow_derivative(q, rhs) + rate * q)
    return {key: sp.cancel(x.xreplace(jets)) for key, x in codazzi(False).items()}


def linear_variety(c, rhs):
    """(values, divisors) of the set where C = ``c`` and C' (along ``rhs``)
    vanish: C = 0 solved for f', then C' = 0 for k, with ``divisors`` the
    coefficient of f' in C and of k in C' that each solution divides by.
    Each is a solution only where C is linear in f' and C' in k, which the
    caller checks by putting ``values`` back in."""
    c_fp = sp.cancel(sp.diff(c, fp))
    fp_value = sp.cancel(fp - c / c_fp)
    c1 = sp.cancel(flow_derivative(c, rhs).xreplace({fp: fp_value}))
    c_k = sp.cancel(sp.diff(c1, k))
    k_value = sp.cancel(k - c1 / c_k)
    return {fp: sp.cancel(fp_value.xreplace({k: k_value})), k: k_value}, (c_fp, c_k)
