"""The reduced first-order soliton system and its algebraic identities.

For the doubly-warped ansatz with a = p'/p, b = h'/h and potential slope
fp = f', the soliton equation reduces, after eliminating curvature, to

    a'  = fp a - a^2 - 2 a b - lambda
    b'  = a' + a^2 - b^2          (p''/p = h''/h)
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

p''/p = h''/h is not delta W = 0 on this ansatz: p = cosh s, h = sinh s
satisfies it, yet has delta W != 0 at k = 0 and k = -1.  Along the flow the
Codazzi components of `solitonlab.curvature.codazzi_components` satisfy
3 D_3 = b C + (a - b)(lambda + 3 a b - (a + b) f') and D_2 = -2 D_3 = -2 D_4,
so delta W = 0 holds where C = C' = 0, where the identities hold too;
``tests/symbolic.py`` derives this from the frame curvature.

A trajectory (`Trajectory`) is one (7, N) float array, a row per field of
`ReducedState` (s, a, b, f', h, lambda, k) and a column per state.  Every
state in it lies in integrate's range: all values finite, |a|, |b| and
|f'| at most `BLOWUP_LIMIT`, and `H_FLOOR` <= h <= `BLOWUP_LIMIT`.
`integrate` refuses a start outside it and stops at the first step that
leaves it; the constructor refuses any other state outside it.  The
identities of all the states are one formula run on the columns
(`Trajectory.identities`); a^2, h^2 and a^3 go through Python's float pow,
in one pass over the column lists, because numpy's ``power`` rounds some
squares and cubes differently and the integrate reports keep their bytes.
In the range no pow overflows and h^2 does not underflow.

The identities and the branch factors are judged by the scale rule of
:mod:`solitonlab.report`, against sigma, the largest of a^2, b^2, f'^2,
|lambda| and |k/h^2| at each state.  Their length dimensions are
`IDENTITY_DIMS` and `BRANCH_DIMS`.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .report import Evidence, weigh

BLOWUP_LIMIT = 1e8
MAX_STEPS = 10**6
H_FLOOR = 1e-8
# the rows of a block of `_IdentityTable.to_csv`
CSV_BLOCK = 1024

BRANCH_FACTORS = ("b", "lambda+3ab", "lambda-2a^2+ab")
BRANCH_DIMS = (1, 2, 2)
IDENTITIES = ("linear", "second_order", "quadratic", "cubic_slope", "branch_cubic")
IDENTITY_DIMS = (2, 2, 3, 3, 5)
# the rows of an identity table: the identities, then the flag of a = b
REPORTED = IDENTITIES + ("inapplicable",)


# a state of the reduced system at arc-length s, each field a float: a tuple
# of its fields, so it is iterable and equal to the plain tuple of them
ReducedState = namedtuple("ReducedState", "s a b fp h lam k")


def _rhs(a: float, b: float, fp: float, h: float, lam: float):
    """(a', b', fp', h') of the reduced system."""
    if h == 0.0:  # tested here, as RK4 calls this four times a step
        raise DomainError("h vanished: the fiber scale degenerated")
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


# integrate's range: the least and the greatest value of each field of a
# state; s, lambda and k need only be finite
_TOP = np.finfo(float).max
_LOW = np.array([-_TOP] + [-BLOWUP_LIMIT] * 3 + [H_FLOOR] + [-_TOP] * 2)[:, None]
_HIGH = np.array([_TOP] + [BLOWUP_LIMIT] * 4 + [_TOP] * 2)[:, None]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """RK4 output: its states as one (7, N) float array, a row per
    `ReducedState` field and a column per state, plus a truncation flag.
    Every state lies in integrate's range: a DomainError names the first
    that does not, its s, the field, the value and the bounds."""

    columns: np.ndarray
    truncated: bool = False
    reason: str | None = None

    def __post_init__(self):
        ok = _LOW <= self.columns  # a NaN fails both tests
        ok &= self.columns <= _HIGH
        if not ok.all():
            col = ok.all(axis=0).argmin()
            row = ok[:, col].argmin()
            s, v = self.columns[[0, row], col].tolist()
            raise DomainError(f"the state at s = {s!r} has {ReducedState._fields[row]} = {v!r}, "
                              f"outside [{_LOW[row, 0]:g}, {_HIGH[row, 0]:g}]")

    @property
    def final(self) -> ReducedState:
        return ReducedState._make(self.columns[:, -1].tolist())

    @cached_property
    def states(self) -> tuple[ReducedState, ...]:
        """The columns as one `ReducedState` per state."""
        return tuple(map(ReducedState._make, self.columns.T.tolist()))

    @cached_property
    def identities(self) -> _IdentityTable:
        """The identity residuals of every state, evaluated once."""
        return _identity_table(self.columns)


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

    A start outside the range of a trajectory (`Trajectory`) raises
    DomainError, and so does a run of more than MAX_STEPS steps, before
    the first step.  A run stops early (flagging the partial trajectory) at
    the first step that leaves the range: singular-steady-type solutions
    genuinely degenerate at s = 0 and the partial data is the useful output.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    start = Trajectory(np.array(st0, dtype=float)[:, None])  # refuses a start out of range
    span = s_end - st0.s
    if span == 0.0:
        return start
    if not abs(span) / step <= MAX_STEPS:
        raise DomainError(f"integrating from s={st0.s!r} to {s_end!r} at step {step!r} "
                          f"takes more than {MAX_STEPS} steps")
    n = max(1, round(abs(span) / step))
    ds = span / n
    lam, top = st0.lam, BLOWUP_LIMIT
    y = (st0.a, st0.b, st0.fp, st0.h)
    kept, reason = array("d", y), None  # (a, b, fp, h) of each accepted state
    for _ in range(n):
        a, b, fp, h = y = _rk4_step(y, ds, lam)
        # false on a NaN, an infinity, |value| > top and h < H_FLOOR alike
        if not (-top <= a <= top and -top <= b <= top and -top <= fp <= top
                and H_FLOOR <= h <= top):
            reason = ("non-finite state" if not all(map(math.isfinite, y)) else
                      "state blow-up" if max(map(abs, y)) > top else "h reached its floor")
            break
        kept.extend(y)
    ys = np.frombuffer(kept).reshape(-1, 4).T
    # s from the step count, so no additive drift: st0.s, then st0.s + i ds
    s = np.concatenate(([st0.s], st0.s + np.arange(1, ys.shape[1]) * ds))
    columns = np.vstack([s, ys, np.broadcast_to([[lam], [st0.k]], (2, len(s)))])
    return Trajectory(columns, reason is not None, reason)


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
        empty.  Rows are formatted column by column, `CSV_BLOCK` at a time."""
        keep = self.shown.any(axis=1).tolist()
        header = ["s", "a", "b", "fp", "h"] + [f"res_{n}" for n, m in zip(REPORTED, keep) if m]
        cols = [*self.columns[:5]] + [v for v, m in zip(self.values, keep) if m]
        masks = [np.ones_like(self.shown[0])] * 5 + [m for m, k in zip(self.shown, keep) if k]
        text = [",".join(header) + "\n"]
        for lo in range(0, len(masks[0]), CSV_BLOCK):
            cells = [["%.17g" % v if m else "" for v, m in zip(col[lo:lo + CSV_BLOCK].tolist(),
                                                               mask[lo:lo + CSV_BLOCK].tolist())]
                     for col, mask in zip(cols, masks)]
            text.append("".join(",".join(row) + "\n" for row in zip(*cells)))
        return "".join(text)


def _identity_table(columns: np.ndarray) -> _IdentityTable:
    """The identities of every state at once.  One pass over the column
    lists takes a**2, h**2 and a**3 by Python's pow; a' (in `_rhs`'s
    operation order) and the formulas then run over the columns."""
    _, a, b, fp, h, lam, k = columns
    al = a.tolist()  # one list of a for both of its powers
    a2, a3, h2 = (np.array([x**e for x in c]) for c, e in ((al, 2), (al, 3), (h.tolist(), 2)))
    with np.errstate(all="ignore"):  # inf and nan, as float arithmetic gives them
        kh2 = k / h2
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
    factors = _branch_factors(a, b, lam)  # in the range, none overflows
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

