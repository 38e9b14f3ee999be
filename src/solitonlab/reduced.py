"""The reduced first-order soliton system and its algebraic identities.

For the doubly-warped ansatz with a = p'/p, b = h'/h and potential slope
fp = f', the soliton equation reduces, after eliminating curvature, to

    a'  = fp a - a^2 - 2 a b - lambda
    b'  = a' + a^2 - b^2          (delta W = 0: p''/p = h''/h)
    fp' = 3 a' + 3 a^2 + lambda
    h'  = b h

with the third soliton component

    fp b = b' + 2 b^2 + a b - k/h^2 + lambda

left over: along the flow its residual is exactly minus the ``linear``
identity below.  The flow does not conserve it in general.  From
starts where it vanishes, integrated over s in [1, 1.3], it stays at
rounding level (4.4e-16) on the branch lambda - 2 a^2 + a b = 0 with
lambda = k = 0, the singular steady metric with s shifted, but reaches
0.34 to 1.5 on that branch at other lambda or k, and 0.04 off every
branch.  Along solutions the identities `IDENTITIES` hold:

    linear        (a - b) f' - b (a - b) - k/h^2
    second_order  2 (b' + b^2) + b^2 - k/h^2 + lambda
    quadratic     (a - b)(2 a b - b^2 + lambda) - (a + b) k/h^2
    cubic_slope   (a + b) a' + a^3 + 2 a b^2 + lambda b
    branch_cubic  b (lambda + 3 a b)(lambda - 2 a^2 + a b), where k != 0

and a state with a = b reports only the flag ``inapplicable``.  With C the
``linear`` one and ' the derivative along the flow, ``second_order``,
``quadratic`` and ``cubic_slope`` vanish where C = C' = 0 (dividing by
a - b and a + b), and ``branch_cubic`` where C'' = 0 too;
``tests/symbolic.py`` derives the flow, the third component and these
statements exactly.

A state (`ReducedState`) is a named tuple: iterable, and equal to the plain
tuple of its fields.  A trajectory turns its states into float columns
once (`Trajectory.columns`) and evaluates the identities of all its states
at once, one formula run on the columns (`Trajectory.identities`).  Its
powers go through Python's float pow, in a single pass over the states,
because numpy's ``power`` rounds some squares and cubes differently, and
the integrate reports keep their bytes.

The identities and the branch factors are judged by the scale rule of
:mod:`solitonlab.report`, against sigma, the largest of a^2, b^2, f'^2,
|lambda| and |k/h^2| at each state.  Their length dimensions are
`IDENTITY_DIMS` and `BRANCH_DIMS`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .report import Evidence, weigh

BLOWUP_LIMIT = 1e8
MAX_STEPS = 10**6
H_FLOOR = 1e-8

BRANCH_FACTORS = ("b", "lambda+3ab", "lambda-2a^2+ab")
BRANCH_DIMS = (1, 2, 2)
IDENTITIES = ("linear", "second_order", "quadratic", "cubic_slope", "branch_cubic")
IDENTITY_DIMS = (2, 2, 3, 3, 5)
# the rows of an identity table: the identities, then the flag of a = b
REPORTED = IDENTITIES + ("inapplicable",)


class ReducedState(NamedTuple):
    """State of the reduced system at arc-length s: a tuple of its fields,
    so it is iterable and equal to the plain tuple of them."""

    s: float
    a: float
    b: float
    fp: float
    h: float
    lam: float
    k: float


def _require_h(h: float) -> None:
    if h == 0.0:
        raise DomainError("h vanished: the fiber scale degenerated")


def _rhs(a: float, b: float, fp: float, h: float, lam: float):
    """(a', b', fp', h') of the reduced system."""
    if h == 0.0:  # tested here, as RK4 calls this four times a step
        _require_h(h)
    a2 = a**2
    ap = fp * a - a2 - 2.0 * a * b - lam
    return (ap, ap + a2 - b**2, 3.0 * ap + 3.0 * a2 + lam, b * h)


def _require_positive_s(s: float) -> None:
    if not s > 0.0:
        raise DomainError(f"s = {s!r} must be positive")


def singular_steady_state(s: float = 1.0) -> ReducedState:
    """Reduced data of the singular steady metric: a = 1/(3s), b = 2/(3s),
    f' = 2/(3s), h = s^(2/3), lambda = k = 0."""
    _require_positive_s(s)
    return ReducedState(s, 1.0 / (3.0 * s), 2.0 / (3.0 * s), 2.0 / (3.0 * s),
                        s ** (2.0 / 3.0), 0.0, 0.0)


def product_state(s: float, lam: float) -> ReducedState:
    """Reduced data of the product family: a = 1/s, b = 0, f' = lam s, h = 1."""
    _require_positive_s(s)
    return ReducedState(s, 1.0 / s, 0.0, lam * s, 1.0, lam, lam)


@dataclass(frozen=True)
class Trajectory:
    """RK4 output: one row per accepted step, plus a truncation flag."""

    states: tuple[ReducedState, ...]
    truncated: bool = False
    reason: str | None = None

    @property
    def final(self) -> ReducedState:
        return self.states[-1]

    @cached_property
    def columns(self) -> np.ndarray:
        """The states as one (7, N) float array, a row per `ReducedState` field."""
        return _columns(self.states)

    @cached_property
    def identities(self) -> _IdentityTable:
        """The identity residuals of every state, evaluated once."""
        return _identity_table(self.states, self.columns)

    def identity_residual_rows(self) -> list[dict[str, float]]:
        return self.identities.rows()


def _rk4_step(y: tuple, ds: float, lam: float) -> tuple:
    """One classical RK4 step of the state y = (a, b, fp, h)."""
    a, b, fp, h = y
    half = 0.5 * ds
    a1, b1, f1, h1 = _rhs(a, b, fp, h, lam)
    a2, b2, f2, h2 = _rhs(a + half * a1, b + half * b1, fp + half * f1, h + half * h1, lam)
    a3, b3, f3, h3 = _rhs(a + half * a2, b + half * b2, fp + half * f2, h + half * h2, lam)
    a4, b4, f4, h4 = _rhs(a + ds * a3, b + ds * b3, fp + ds * f3, h + ds * h3, lam)
    return (a + ds * ((a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0),
            b + ds * ((b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0),
            fp + ds * ((f1 + 2.0 * f2 + 2.0 * f3 + f4) / 6.0),
            h + ds * ((h1 + 2.0 * h2 + 2.0 * h3 + h4) / 6.0))


def integrate(st0: ReducedState, s_end: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 from st0.s to s_end.

    Stops early (flagging the partial trajectory) if the state blows up or h
    crosses its positivity floor: singular-steady-type solutions genuinely
    degenerate at s = 0 and the partial data is the useful output.  A run
    of more than MAX_STEPS steps raises DomainError before the first step.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    span = s_end - st0.s
    if span == 0.0:
        return Trajectory((st0,))
    if not abs(span) / step <= MAX_STEPS:
        raise DomainError(f"integrating from s={st0.s!r} to {s_end!r} at step {step!r} "
                          f"takes more than {MAX_STEPS} steps")
    n = max(1, round(abs(span) / step))
    ds = span / n
    s0, lam, k, top = st0.s, st0.lam, st0.k, BLOWUP_LIMIT
    states = [st0]
    y = (st0.a, st0.b, st0.fp, st0.h)
    for i in range(n):
        a, b, fp, h = y = _rk4_step(y, ds, lam)
        # false on a NaN, an infinity, |value| > top and h < H_FLOOR alike
        if not (-top <= a <= top and -top <= b <= top and -top <= fp <= top
                and H_FLOOR <= h <= top):
            reason = ("non-finite state" if not all(map(math.isfinite, y)) else
                      "state blow-up" if max(map(abs, y)) > top else "h reached its floor")
            return Trajectory(tuple(states), True, reason)
        # s from the step count, so no additive drift; tuple.__new__ skips
        # the named tuple's Python-level __new__
        states.append(tuple.__new__(ReducedState, (s0 + (i + 1) * ds, a, b, fp, h, lam, k)))
    return Trajectory(tuple(states))


def _branch_factors(a, b, lam):
    """The factors of `BRANCH_FACTORS`, in that order, at one state (floats)
    or at many (arrays of one shape)."""
    return b, lam + 3.0 * a * b, lam - 2.0 * a * a + a * b


def _identities(a, b, fp, lam, kh2, ap, a3):
    """The residuals of `IDENTITIES`, in that order, at one state (floats)
    or at many (arrays of one shape); a3 is a**3 by Python's pow."""
    bp = ap + a * a - b * b
    b0, b1, b2 = _branch_factors(a, b, lam)
    return ((a - b) * fp - b * (a - b) - kh2,
            2.0 * (bp + b * b) + b * b - kh2 + lam,
            (a - b) * (2.0 * a * b - b * b + lam) - (a + b) * kh2,
            (a + b) * ap + a3 + 2.0 * a * b * b + lam * b,
            b0 * b1 * b2)


class _IdentityTable(NamedTuple):
    """The identity residuals of a run of states, from one evaluation."""

    columns: np.ndarray  # (7, N): the states, as `Trajectory.columns`
    values: np.ndarray   # (6, N): row i holds REPORTED[i] at every state, the flag as 1
    shown: np.ndarray    # (6, N): whether the row of a state reports REPORTED[i]
    sigma: np.ndarray    # the scale of each state

    def rows(self) -> list[dict[str, float]]:
        """The residuals that each state reports, as one dict per state."""
        return [{name: v for name, v, m in zip(REPORTED, vals, mask) if m}
                for vals, mask in zip(self.values.T.tolist(), self.shown.T.tolist())]

    def evidence(self) -> Evidence:
        """The identities of every state as one `Evidence`, ``per_equation``
        naming each residual that some row reports; an inapplicable state
        counts as the dimensionless residual 1."""
        r = np.abs(np.where(self.shown, self.values, 0.0))
        per_eq = {name: peak for name, peak, m in zip(REPORTED, r.max(axis=1).tolist(),
                                                      self.shown.any(axis=1)) if m}
        return weigh(self.columns[0], r, IDENTITY_DIMS + (0,), self.sigma, per_eq,
                     what="identity residual")

    def to_csv(self) -> str:
        """One CSV row per state, each value as ``%.17g``.  The header is s, a,
        b, fp, h, then ``res_<name>`` in `REPORTED` order, each residual only
        where some row reports it; a cell that its row does not report is
        empty."""
        header = ["s", "a", "b", "fp", "h"]
        cells = [["%.17g" % v for v in col] for col in self.columns[:5].tolist()]
        for name, col, shown in zip(REPORTED, self.values.tolist(), self.shown):
            if shown.any():
                header.append(f"res_{name}")
                cells.append(["%.17g" % v if m else "" for v, m in zip(col, shown.tolist())])
        return "".join(",".join(row) + "\n" for row in (header, *zip(*cells)))


def _columns(states) -> np.ndarray:
    """The states as one (7, N) float array, a row per `ReducedState` field."""
    return np.fromiter(itertools.chain.from_iterable(states), float,
                       7 * len(states)).reshape(-1, 7).T


def _powers(states):
    """a**2, k/h^2 and a**3 (0.0 where a = b) of each state in turn, by
    Python's float pow, after the h = 0 test and the b**2 of `_rhs`: so the
    first failing state raises what it raises alone."""
    for _, a, b, _, h, _, k in states:
        _require_h(h)
        a2, _ = a**2, b**2  # b**2 for the OverflowError of `_rhs` only
        yield a2
        yield k / h**2
        yield a**3 if a != b else 0.0


def _identity_table(states, columns=None) -> _IdentityTable:
    """The identities of every state at once.  One pass over the states takes
    the powers (`_powers`) in Python, so it raises what the first failing
    state raises in `_rhs` or in its powers; a' (in `_rhs`'s operation
    order) and the formulas then run over the columns."""
    columns = _columns(states) if columns is None else columns
    _, a, b, fp, _, lam, k = columns
    a2, kh2, a3 = np.fromiter(_powers(states), float, 3 * len(states)).reshape(-1, 3).T
    with np.errstate(all="ignore"):  # inf and nan, as float arithmetic gives them
        ap = fp * a - a2 - 2.0 * a * b - lam
        values = np.array([*_identities(a, b, fp, lam, kh2, ap, a3), np.ones_like(a)])
        sigma = np.abs([a2, b * b, fp * fp, lam, kh2]).max(axis=0)
    ok = a != b  # branch_cubic is reported where k != 0, the flag where a = b
    shown = np.array([ok] * 4 + [ok & (k != 0.0), ~ok])
    return _IdentityTable(columns, values, shown, sigma)


def branch_label(traj: Trajectory, tol: float) -> tuple[str, ...]:
    """The `BRANCH_FACTORS` that vanish at tol at every state of the
    trajectory, each judged against the sigma of its state; ties are
    labeled jointly."""
    s, a, b, _, _, lam, _ = traj.columns
    with np.errstate(all="ignore"):
        factors = _branch_factors(a, b, lam)
    return tuple(name for name, v, d in zip(BRANCH_FACTORS, factors, BRANCH_DIMS)
                 if weigh(s, [v], [d], traj.identities.sigma, what="branch factor").passes(tol))


# ---------------------------------------------------------------------------
# warped-product (3-d fiber) reduced equations

def warp3_rhs(h: float, hp: float, fp: float, lam: float, k: float) -> tuple[float, float]:
    """(h'', f'') of the 3-fiber warped product soliton equations:
    h''/h = (h'/h) f' + 2k/h^2 - 2(h'/h)^2 - lambda and f'' = lambda + 3h''/h."""
    if h <= 0.0:
        raise DomainError(f"h = {h!r} must be positive")
    hpp = h * ((hp / h) * fp + 2.0 * k / h**2 - 2.0 * (hp / h) ** 2 - lam)
    fpp = lam + 3.0 * hpp / h
    return hpp, fpp

