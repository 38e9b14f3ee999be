import csv
import functools
import gc
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

import symbolic
from solitonlab import cli, reduced
from solitonlab.errors import DomainError
from solitonlab.reduced import (MAX_STEPS, ReducedState, branch_label, integrate,
                                product_state, singular_steady_state, warp3_rhs)

TOL = 1e-10  # the default --tol of `solitonlab integrate`


def rhs(st):
    """(a', b', f'', h') of the doubly-warped flow at a state."""
    return reduced._rhs(st.a, st.b, st.fp, st.h, st.lam)


def trajectory(*states):
    """The `Trajectory` of the given states, a column each."""
    return reduced.Trajectory(np.array(states, dtype=float).T)


def identity_rows(traj):
    """The identity residuals that each state of ``traj`` reports, as one
    dict per state, read off its identity table."""
    table = traj.identities
    return [{name: v for name, v, m in zip(reduced.REPORTED, vals, mask) if m}
            for vals, mask in zip(table.values.T.tolist(), table.shown.T.tolist())]


def row(st):
    """The identity residuals that one state reports."""
    return identity_rows(trajectory(st))[0]


# the residual of the third soliton component is minus the `linear` row
# (`test_third_soliton_component_is_minus_the_linear_row`), which these
# points check in its place
def test_dw_rhs_singular_steady_point():
    st0 = ReducedState(1.0, 1 / 3, 2 / 3, 2 / 3, 1.0, 0.0, 0.0)
    assert_allclose(rhs(st0), (-1 / 3, -2 / 3, -2 / 3, 2 / 3), rtol=1e-15)
    assert abs(row(st0)["linear"]) <= 1e-16


def test_dw_rhs_flat_fixed_point():
    st0 = ReducedState(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert rhs(st0) == (0.0, 0.0, 0.0, 0.0)
    assert row(st0) == {"inapplicable": 1.0}  # a = b: no identity applies


def test_dw_rhs_product_point():
    st0 = product_state(1.7, -1.0)
    _, bp, _, hp = rhs(st0)
    assert abs(bp) <= 1e-15
    assert abs(hp) <= 1e-15
    assert abs(row(st0)["linear"]) <= 1e-15


def test_integrate_singular_steady_closed_form():
    traj = integrate(singular_steady_state(1.0), 2.0, 1e-3)
    assert not traj.truncated
    end = traj.final
    assert_allclose(end.s, 2.0, rtol=1e-14)
    assert abs(end.a - 1.0 / 6.0) <= 1e-9
    assert abs(end.b - 1.0 / 3.0) <= 1e-9
    assert abs(end.fp - 1.0 / 3.0) <= 1e-9
    assert abs(end.h - 2.0 ** (2.0 / 3.0)) <= 1e-9


def test_integrate_backwards():
    traj = integrate(singular_steady_state(1.0), 0.6, 1e-3)
    assert not traj.truncated
    assert abs(traj.final.a - 1.0 / 1.8) <= 1e-9


@pytest.mark.parametrize("s", [0.0, -1.0])
def test_reduced_states_reject_nonpositive_s(s):
    with pytest.raises(DomainError):
        singular_steady_state(s)
    with pytest.raises(DomainError):
        product_state(s, -1.0)


def test_integrate_zero_state_stays_zero():
    traj = integrate(ReducedState(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 3.0, 0.01)
    assert all(st.a == 0.0 and st.fp == 0.0 for st in traj.states)


def test_integrate_product_closed_form():
    traj = integrate(product_state(1.0, -1.0), 2.0, 1e-3)
    assert abs(traj.final.fp - (-2.0)) <= 1e-9
    assert abs(traj.final.a - 0.5) <= 1e-9


def test_integrate_convergence_order():
    target = 1.0 / 6.0  # a = 1/(3s) at s = 2
    errs = []
    for step in (0.02, 0.005):
        traj = integrate(singular_steady_state(1.0), 2.0, step)
        errs.append(abs(traj.final.a - target))
    assert errs[0] / errs[1] >= 200.0


@pytest.mark.parametrize("s_end, step", [(2.0, 1e-7), (1e6, 1e-3), (2.0, 1e-300),
                                         (1e308, 1e-300)])
def test_integrate_refuses_more_than_max_steps(s_end, step):
    with pytest.raises(DomainError, match=f"more than {MAX_STEPS} steps"):
        integrate(singular_steady_state(1.0), s_end, step)


def test_integrate_flags_blowup():
    # drive h to its floor: b large and negative collapses h fast
    st0 = ReducedState(1.0, 0.5, -40.0, 0.0, 1e-6, 0.0, 0.0)
    traj = integrate(st0, 5.0, 1e-3)
    assert traj.truncated
    assert traj.reason is not None


def reference_truncation(steps):
    """(state count, truncated, reason) of a run whose RK4 steps give
    ``steps`` in turn, checking each step for a non-finite value, then for
    |value| > BLOWUP_LIMIT, then for h < H_FLOOR."""
    for kept, y in enumerate(steps, start=1):
        if not all(map(math.isfinite, y)):
            return kept, True, "non-finite state"
        if max(map(abs, y)) > reduced.BLOWUP_LIMIT:
            return kept, True, "state blow-up"
        if y[3] < reduced.H_FLOOR:
            return kept, True, "h reached its floor"
    return len(steps) + 1, False, None


PAST_TOP = math.nextafter(reduced.BLOWUP_LIMIT, math.inf)
EDGES = (-0.0, 1.0, 1e8, -1e8, PAST_TOP, -PAST_TOP, math.nan, math.inf, -math.inf)
H_EDGES = (1.0, -0.0, reduced.H_FLOOR, math.nextafter(reduced.H_FLOOR, 0.0), 1e8, PAST_TOP,
           math.nan, math.inf, -math.inf)


def test_integrate_truncates_where_the_three_checks_in_order_do(monkeypatch):
    # every mix of edge values in (a, b, fp, h), as the second of three steps
    good = (0.5, -0.5, 0.25, 1.0)
    script = iter(())
    monkeypatch.setattr(reduced, "_rk4_step", lambda *args: next(script))
    for y in itertools.product(EDGES, EDGES, EDGES, H_EDGES):
        steps = [good, y, good]
        script = iter(steps)
        traj = integrate(ReducedState(0.0, *good, 0.0, 0.0), 3.0, 1.0)
        assert (len(traj.states), traj.truncated, traj.reason) == reference_truncation(steps), y
        kept = [(st.a, st.b, st.fp, st.h) for st in traj.states]
        assert kept == [good, *steps][:len(kept)]


def test_identity_residuals_singular_steady_point():
    res = row(singular_steady_state(1.0))
    for key in ("linear", "second_order", "quadratic", "cubic_slope"):
        assert abs(res[key]) <= 1e-15, key
    assert "branch_cubic" not in res  # k = 0


def test_identity_residuals_product_point():
    res = row(product_state(1.3, -1.0))
    for key in ("linear", "second_order", "quadratic", "cubic_slope", "branch_cubic"):
        assert abs(res[key]) <= 1e-15, key


def test_identity_residuals_inapplicable_when_a_equals_b():
    assert row(ReducedState(1.0, 0.4, 0.4, 0.1, 1.0, 0.0, 1.0)) == {"inapplicable": 1.0}


@pytest.mark.parametrize("state, expected_branch", [
    (singular_steady_state(1.0), "lambda-2a^2+ab"),
    (product_state(1.0, -1.0), "b"),
])
def test_identities_and_branch_along_trajectories(state, expected_branch):
    traj = integrate(state, 2.0, 1e-3)
    for res in identity_rows(traj):
        assert max(abs(v) for v in res.values()) <= 1e-10
        assert abs(res["linear"]) <= 1e-11  # minus the third soliton component
    assert branch_label(traj, TOL) == (expected_branch,)


def test_warp3_rhs_reference_values():
    assert_allclose(warp3_rhs(1.0, 1.0, 3.0, 3.0, 1.0), (0.0, 3.0), atol=1e-15)
    assert_allclose(warp3_rhs(1.0, 0.0, 5.0 * 2.0, 2.0, 1.0), (0.0, 2.0), atol=1e-15)
    assert_allclose(warp3_rhs(1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0), atol=1e-15)


def test_warp3_rhs_gaussian_line():
    lam = 1.7
    for s in (0.5, 1.0, 2.0):
        hpp, fpp = warp3_rhs(s, 1.0, lam * s, lam, 1.0)
        assert abs(hpp) <= 1e-14
        assert_allclose(fpp, lam, rtol=1e-14)


def test_trajectory_csv_export():
    traj = integrate(singular_steady_state(1.0), 1.1, 0.05)
    text = traj.identities.to_csv()
    header = text.splitlines()[0].split(",")
    assert header[:5] == ["s", "a", "b", "fp", "h"]
    assert any(col.startswith("res_") for col in header)
    assert len(text.splitlines()) == len(traj.states) + 1


def test_trajectory_csv_header_is_the_union_of_the_rows_keys():
    # the first state has a == b, so its row holds only res_inapplicable
    traj = trajectory(ReducedState(0, .4, .4, .1, 1, 0, 1),
                      ReducedState(0, .3, -.2, .5, 1.2, -1, 1))
    rows = list(csv.reader(traj.identities.to_csv().splitlines()))
    assert rows[0] == ["s", "a", "b", "fp", "h", *(f"res_{k}" for k in reduced.IDENTITIES),
                       "res_inapplicable"]
    assert len(rows[0]) == 11 and len(rows) == 3
    assert rows[1][5:] == [""] * 5 + ["1"]
    second = reference_identity_row(traj.states[1])
    assert rows[2][5:] == ["%.17g" % second[k] for k in reduced.IDENTITIES] + [""]


def reference_csv(traj):
    """The integrate CSV written as one dict per state through csv.DictWriter,
    the header the union of the rows' keys in the documented order."""
    rows = [{"s": st.s, "a": st.a, "b": st.b, "fp": st.fp, "h": st.h,
             **{f"res_{k}": v for k, v in res.items()}}
            for st, res in zip(traj.states, identity_rows(traj))]
    keys = set().union(*rows)
    order = ("s", "a", "b", "fp", "h",
             *(f"res_{k}" for k in (*reduced.IDENTITIES, "inapplicable")))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, [k for k in order if k in keys], restval="",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: "%.17g" % v for k, v in row.items()} for row in rows)
    return buf.getvalue()


def test_trajectory_csv_has_the_bytes_of_the_dictwriter_table():
    same = ReducedState(0, .4, .4, .1, 1, 0, 1)  # a == b: inapplicable
    other = ReducedState(0, .3, -.2, .5, 1.2, -1, 1)
    k0 = ReducedState(1, .3, -.2, .5, 1.2, 1.7e308, 0)  # no branch_cubic, -inf cells
    runs = [integrate(singular_steady_state(1.0), 1.1, 0.01),
            integrate(product_state(1.0, -1.0), 1.2, 0.01),
            integrate(product_state(1.0, 3.0), 30.0, 0.01),  # truncated: state blow-up
            integrate(singular_steady_state(1.0), 3.5, 1e-3),  # rows of three blocks
            trajectory(same, same), trajectory(other, same, k0)]
    assert runs[2].truncated and len(runs[3].states) > 2 * reduced.CSV_BLOCK
    assert "-inf" in runs[5].identities.to_csv()
    for traj in runs:
        assert traj.identities.to_csv() == reference_csv(traj)


def reference_rk4_step(st, ds):
    """The four stage states of one RK4 step from `st`, and its result, on
    `ReducedState` objects through `rhs`."""
    def shift(k, c):
        return st._replace(a=st.a + c * ds * k[0], b=st.b + c * ds * k[1],
                           fp=st.fp + c * ds * k[2], h=st.h + c * ds * k[3])

    stages, ks = [st], []
    for c in (0.5, 0.5, 1.0):
        ks.append(rhs(stages[-1]))
        stages.append(shift(ks[-1], c))
    ks.append(rhs(stages[-1]))
    mix = [(ks[0][j] + 2.0 * ks[1][j] + 2.0 * ks[2][j] + ks[3][j]) / 6.0 for j in range(4)]
    return stages, shift(mix, 1.0)


def reference_rk4_states(st0, s_end, step):
    """The RK4 of `integrate`, step by step through `reference_rk4_step`,
    for the states of an untruncated run."""
    n = max(1, round(abs(s_end - st0.s) / step))
    ds = (s_end - st0.s) / n
    states = [st0]
    for i in range(n):
        _, nxt = reference_rk4_step(states[-1], ds)
        states.append(nxt._replace(s=st0.s + (i + 1) * ds))
    return states


REFERENCE_RUNS = [
    (singular_steady_state(1.0), 2.0, 1e-3),
    (singular_steady_state(1.0), 0.3, 7e-3),
    (product_state(1.0, -1.0), 1.5, 1e-2),
    (ReducedState(1.0, 0.4, -0.3, 0.2, 1.3, 0.7, -0.5), 1.2, 1e-2),
]


@pytest.mark.parametrize("st0, s_end, step", REFERENCE_RUNS)
def test_integrate_matches_reference_rk4_bit_for_bit(st0, s_end, step):
    traj = integrate(st0, s_end, step)
    assert not traj.truncated
    assert list(traj.states) == reference_rk4_states(st0, s_end, step)


def test_rk4_step_matches_the_reference_stage_by_stage(monkeypatch):
    # steps as large as the state, so a last-bit change in any stage or in
    # the final mix survives the addition to the state
    rng = np.random.default_rng(12)
    calls = []
    rhs = reduced._rhs
    monkeypatch.setattr(reduced, "_rhs", lambda *args: calls.append(args) or rhs(*args))
    for _ in range(200):
        a, b, fp, lam = rng.uniform(-1.0, 1.0, 4).tolist()
        h = float(rng.uniform(0.5, 2.0))
        ds = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        calls.clear()
        got = reduced._rk4_step((a, b, fp, h), ds, lam)
        seen = list(calls)
        stages, want = reference_rk4_step(ReducedState(0.0, a, b, fp, h, lam, 0.0), ds)
        assert seen == [(st.a, st.b, st.fp, st.h, lam) for st in stages]
        assert got == (want.a, want.b, want.fp, want.h)


def test_integrate_rejects_a_vanishing_h_in_a_stage():
    # h' = b h, so the first half stage lands on h = 1 + 0.5 * (-2) * 1 = 0
    with pytest.raises(DomainError):
        integrate(ReducedState(1.0, 0.0, -2.0, 0.0, 1.0, 0.0, 0.0), 2.0, 1.0)


# ---------------------------------------------------------------------------
# the batched identity evaluation against the state-by-state formulas

def reference_identity_row(st):
    """The identity residuals of one state, scalar formula by formula, with
    a' through `rhs`."""
    ap = rhs(st)[0]
    a, b, lam, kh2 = st.a, st.b, st.lam, st.k / st.h**2
    if a == b:
        return {"inapplicable": 1.0}
    bp = ap + a * a - b * b
    out = {
        "linear": (a - b) * st.fp - b * (a - b) - kh2,
        "second_order": 2.0 * (bp + b * b) + b * b - kh2 + lam,
        "quadratic": (a - b) * (2.0 * a * b - b * b + lam) - (a + b) * kh2,
        "cubic_slope": (a + b) * ap + a**3 + 2.0 * a * b * b + lam * b,
    }
    if st.k != 0.0:
        out["branch_cubic"] = b * (lam + 3.0 * a * b) * (lam - 2.0 * a * a + a * b)
    return out


def reference_sigma(st):
    """The scale of one state: the largest of a^2, b^2, f'^2, |lambda| and
    |k/h^2|."""
    return max(st.a**2, st.b**2, st.fp**2, abs(st.lam), abs(st.k / st.h**2))


def reference_ratio(value, dim, sigma):
    return 0.0 if value == 0.0 else abs(value) / sigma ** (dim / 2)


def reference_branch(states, tol=TOL):
    """The branch factors whose |factor| / sigma^(d/2) stays at or below tol
    at every state, one state at a time."""
    peaks = [0.0, 0.0, 0.0]
    for st in states:
        vals = (st.b, st.lam + 3.0 * st.a * st.b, st.lam - 2.0 * st.a**2 + st.a * st.b)
        for i, (v, d) in enumerate(zip(vals, reduced.BRANCH_DIMS)):
            peaks[i] = max(peaks[i], reference_ratio(v, d, reference_sigma(st)))
    return tuple(name for name, peak in zip(reduced.BRANCH_FACTORS, peaks) if peak <= tol)


def reference_identity_ratio(states):
    """The largest |identity| / sigma^(d/2) over the states, an inapplicable
    state counting as 1."""
    dims = dict(zip(reduced.IDENTITIES, reduced.IDENTITY_DIMS))
    return max(max(reference_ratio(v, dims.get(k, 0), reference_sigma(st)) for k, v in
                   reference_identity_row(st).items()) for st in states)


def bits(rows):
    """Rows with every float as its hex string: signed zeros differ, NaNs match."""
    return [{k: v.hex() for k, v in row.items()} for row in rows]


def assert_batch_matches_reference(traj):
    rows = [reference_identity_row(st) for st in traj.states]
    assert bits(identity_rows(traj)) == bits(rows)
    # a residual or a scale that is not finite is a domain error, never a verdict
    if all(math.isfinite(reference_sigma(st)) for st in traj.states):
        assert branch_label(traj, TOL) == reference_branch(traj.states)
    else:
        with pytest.raises(DomainError, match="branch factor"):
            branch_label(traj, TOL)
    if not all(math.isfinite(v) for row in rows for v in row.values()):
        with pytest.raises(DomainError, match="identity residual"):
            traj.identities.evidence()
        return
    evidence = traj.identities.evidence()
    assert evidence.max_abs == max(max(map(abs, row.values())) for row in rows)
    assert_allclose(evidence.ratio, reference_identity_ratio(traj.states), rtol=1e-14)


def seeded_starts(count=40, seed=24):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b, fp, lam = rng.uniform(-1.0, 1.0, 4).tolist()
        k = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
        h = float(rng.uniform(0.5, 2.0))
        out.append((ReducedState(1.0, a, b, fp, h, lam, k), float(rng.uniform(1.2, 2.0)), 1e-2))
    return out


# the three integrate runs of the CLI at its defaults (`--lam` as the
# benchmark draws it), as (argv, start, end, step)
CLI_RUNS = [
    (["--family", "singular-steady"], singular_steady_state(1.0), 2.0, 1e-3),
    (["--family", "product", "--lam", "-1.046731"], product_state(1.0, -1.046731), 2.0, 1e-3),
    (["--family", "singular-steady", "--from", "1", "--to", "1e-4"],
     singular_steady_state(1.0), 1e-4, 1e-3),
]


@pytest.mark.parametrize("st0, s_end, step", REFERENCE_RUNS
                         + [run[1:] for run in CLI_RUNS] + seeded_starts())
def test_identity_table_matches_the_state_by_state_formulas_bit_for_bit(st0, s_end, step):
    traj = integrate(st0, s_end, step)
    if st0.k != 0.0:
        assert all("branch_cubic" in row for row in identity_rows(traj))
    assert_batch_matches_reference(traj)


@pytest.mark.parametrize("argv, st0, s_end, step", CLI_RUNS)
def test_cli_integrate_summary_matches_the_state_by_state_formulas(argv, st0, s_end, step,
                                                                    tmp_path):
    out = tmp_path / "report.json"
    cli.main(["integrate", *argv, "--out", str(out)])
    report = json.loads(out.read_text())
    traj = integrate(st0, s_end, step)
    rows = [reference_identity_row(st) for st in traj.states]
    assert report["identities"]["max_abs"] == max(max(map(abs, row.values())) for row in rows)
    assert tuple(report["branch"]) == reference_branch(traj.states)
    assert report["steps"] == len(traj.states) - 1


# states in integrate's range whose residuals overflow: lambda and k are
# bounded only by being finite, and k/h^2 may reach 1e16 k
INF_ROW = ReducedState(0.0, 1.0, 0.5, 0.2, 1.0, 1e300, 1.0)  # branch_cubic is inf
# linear is -inf, and quadratic is 2e308 - inf, NaN, after it
NAN_LATER = ReducedState(0.0, 1.5, -0.5, 0.2, 1e-8, 1e308, 1e308)
EQUAL_AB = ReducedState(0.0, 0.4, 0.4, 0.1, 1.0, 0.0, 1.0)
PLAIN = ReducedState(0.0, 0.3, -0.2, 0.5, 1.2, -1.0, 1.0)
K_ZERO = ReducedState(0.0, 2.0, 3.0, 3.0, 1.0, 1.0, 0.0)  # |b (lambda+3ab) (..)| = 57, unreported


@pytest.mark.parametrize("states", [
    (PLAIN, EQUAL_AB, INF_ROW),
    (EQUAL_AB, PLAIN),
    (NAN_LATER, PLAIN, INF_ROW),
    (PLAIN, NAN_LATER, INF_ROW),
    (NAN_LATER, PLAIN),
    (PLAIN, NAN_LATER, EQUAL_AB),
    (EQUAL_AB,),
    (PLAIN, K_ZERO),
], ids=["inf", "inapplicable-first", "nan-first-row", "nan-later-row",
        "nan-later-key", "nan-later-key-later-row", "inapplicable-only", "k-zero"])
def test_identity_table_keeps_the_per_state_max_on_inapplicable_and_non_finite_rows(states):
    assert_batch_matches_reference(trajectory(*states))


def test_trajectory_refuses_states_outside_integrates_range():
    # each state in a column of its own between two in the range: a**3 or
    # a**2 overflowing, h = 0 or h**2 underflowing, and a value not finite
    cube = ReducedState(2.0, 1e120, 0.5, 0.0, 1.0, 0.0, 0.0)
    vanished = ReducedState(2.0, 0.3, 0.5, 0.0, 0.0, 0.0, 0.0)
    tiny_h = ReducedState(2.0, 0.3, 0.5, 0.0, 1e-200, 0.0, 1.0)
    b_sq = ReducedState(2.0, 0.3, 1e160, 0.0, 1.0, 0.0, 1.0)
    both = ReducedState(2.0, 1e120, 1e120, 0.0, 1.0, 0.0, 0.0)  # a = b
    huge_fp = ReducedState(2.0, 0.3, 0.5, -1e9, 1.0, 0.0, 1.0)
    wide_h = ReducedState(2.0, 0.3, 0.5, 0.0, 1e9, 0.0, 1.0)
    nan_lam = ReducedState(2.0, 0.3, 0.5, 0.0, 1.0, math.nan, 1.0)
    inf_k = ReducedState(2.0, 0.3, 0.5, 0.0, 1.0, 0.0, -math.inf)
    nan_s = ReducedState(math.nan, 0.3, 0.5, 0.0, 1.0, 0.0, 1.0)
    later = PLAIN._replace(s=3.0, h=0.0)  # out of range too, after the first
    ab, h, finite = "[-1e+08, 1e+08]", "[1e-08, 1e+08]", "[-1.79769e+308, 1.79769e+308]"
    for bad, field, bound in [(cube, "a", ab), (vanished, "h", h), (tiny_h, "h", h),
                              (b_sq, "b", ab), (both, "a", ab), (huge_fp, "fp", ab),
                              (wide_h, "h", h), (nan_lam, "lam", finite), (inf_k, "k", finite),
                              (nan_s, "s", finite)]:
        with pytest.raises(DomainError) as exc:
            trajectory(PLAIN, bad, later)
        message = str(exc.value)
        assert message.startswith(f"the state at s = {bad.s!r} has {field} = "), message
        assert message.endswith(f", outside {bound}"), message


def test_integrate_refuses_a_start_outside_its_range():
    for st0, field in [(singular_steady_state(1e-310), "a"), (singular_steady_state(1e-9), "a"),
                       (PLAIN._replace(h=1e-9), "h"), (product_state(1.0, 1e200), "fp")]:
        for s_end in (st0.s, 1.0):  # a run of no steps, and one of many
            with pytest.raises(DomainError, match=f"has {field} = .*, outside \\["):
                integrate(st0, s_end, 1e-3)


def peak_bytes_per_state(build, count):
    """The tracemalloc peak of ``build()`` above what was allocated before
    it, per state of a run of ``count`` states, and what it returns.  The
    cyclic GC is off meanwhile: it would free nothing that the peak holds,
    and its collections over the test session's objects are slow to trace."""
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    return (peak - before) / count, out


def test_integrate_and_its_csv_hold_a_long_run_in_bounded_memory():
    # 2e4 steps: the columns take 56 bytes a state, and a Python object
    # per state would take 64 or more on top.  A short run first: the first
    # run in a test session traces several times slower
    integrate(singular_steady_state(1.0), 1.0001, 1e-6)
    per_state, traj = peak_bytes_per_state(
        lambda: integrate(singular_steady_state(1.0), 1.02, 1e-6), 20001)
    assert traj.columns.shape == (7, 20001) and not traj.truncated
    assert per_state <= 128
    traj.identities  # the table is not part of the CSV's cost
    per_state, text = peak_bytes_per_state(traj.identities.to_csv, 20001)
    assert per_state * 20001 <= 3 * len(text)


def test_cli_integrate_csv_evaluates_the_identities_once(tmp_path, monkeypatch):
    calls = []
    identities = reduced._identities
    monkeypatch.setattr(reduced, "_identities",
                        lambda *args: calls.append(len(np.atleast_1d(args[0])))
                        or identities(*args))
    out = tmp_path / "traj.csv"
    code = cli.main(["integrate", "--family", "product", "--lam", "-1", "--from", "1",
                     "--to", "1.02", "--step", "1e-3", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert calls == [21]  # one evaluation, over all 21 states
    traj = integrate(product_state(1.0, -1.0), 1.02, 1e-3)
    assert out.read_text() == traj.identities.to_csv()


# ---------------------------------------------------------------------------
# exact witnesses: the package's flows and identity rows, called on sympy
# symbols with their float literals made exact, against `symbolic`'s
# derivation from the frame curvature

a, b, fp, h, lam, k = (symbolic.a, symbolic.b, symbolic.fp, symbolic.h, symbolic.lam,
                       symbolic.k)


def exact(values):
    """``values`` with each float literal replaced by the rational it is."""
    return tuple(sp.nsimplify(v, rational=True) for v in values)


def exact_rhs():
    return exact(reduced._rhs(a, b, fp, h, lam))


def exact_rows(kh2):
    """The package's `IDENTITIES` rows, exact, with kh2 for k/h^2."""
    return exact(reduced._identities(a, b, fp, lam, kh2, exact_rhs()[0], a**3))


def test_rhs_is_the_soliton_flow_under_harmonic_weyl():
    assert [sp.cancel(x - y) for x, y in zip(exact_rhs(), symbolic.dw_flow())] == [0] * 4


def test_third_soliton_component_is_minus_the_linear_row():
    tensor = symbolic.dw_soliton_tensor(exact_rhs())
    linear = exact_rows(k / h**2)[0]
    assert sorted(q for q, x in tensor.items() if x != 0) == [(2, 2), (3, 3)]
    assert [sp.cancel(tensor[q] + linear) for q in ((2, 2), (3, 3))] == [0, 0]


def test_warp3_rhs_is_the_warped_product_soliton_flow():
    got = exact(warp3_rhs(h, symbolic.hp, fp, lam, k))
    assert [sp.cancel(x - y) for x, y in zip(got, symbolic.warp3_flow())] == [0, 0]
    assert set(symbolic.warp3_soliton_tensor(got).values()) == {0}  # every component


def test_identity_rows_vanish_where_the_linear_row_and_its_derivatives_do():
    flow, (c, *rows) = exact_rhs(), exact_rows(k / h**2)
    c1 = symbolic.flow_derivative(c, flow)
    c2 = symbolic.flow_derivative(c1, flow)
    values, divisors = symbolic.linear_variety(c, flow)
    on = lambda x: sp.cancel(x.xreplace(values))
    assert not {fp, k} & set().union(*(v.free_symbols for v in values.values()))
    assert [sp.cancel(x - y) for x, y in zip(divisors, (a - b, (a + b) / h**2))] == [0, 0]
    assert [on(c), on(c1)] == [0, 0]
    # second_order, quadratic and cubic_slope follow from C = C' = 0 ...
    assert [on(x) for x in rows[:3]] == [0, 0, 0]
    # ... and branch_cubic, which neither f' nor k enters, from C'' = 0 too
    assert not {fp, k} & rows[3].free_symbols and rows[3] != 0
    assert sp.cancel(on(c2) + 2 * (a - b) / (a + b) ** 2 * rows[3]) == 0
    # the flow sets p''/p = h''/h, and delta W = 0 where C = C' = 0 too: its
    # Codazzi components D_2 = -2 D_3 = -2 D_4 have 3 D_3 = b C + (a - b)
    # (lambda + 3ab - (a + b) f')
    d3 = symbolic.dw_codazzi(flow)[0, 2, 2]
    assert sp.cancel(3 * d3 - b * c - (a - b) * (lam + 3 * a * b - (a + b) * fp)) == 0
    assert on(d3) == 0


@functools.cache
def exact_row_values():
    """The exact `IDENTITIES` rows as a function of (a, b, f', lambda, k/h^2)
    that takes and returns `Fraction`s: integer coefficients only."""
    kh2 = sp.Symbol("kh2")
    return sp.lambdify((a, b, fp, lam, kh2), exact_rows(kh2))


EPS = 2.0**-52
# the batch rows hold the exact rows within ROUNDING eps sigma^(d/2): each
# row sums at most a dozen products of terms of size at most 2 sigma^(d/2),
# and the largest error seen on these runs is 3.2 eps sigma^(d/2)
ROUNDING = 8.0


@pytest.mark.parametrize("st0, s_end, step", REFERENCE_RUNS)
def test_identity_rows_hold_the_exact_rows_within_rounding(st0, s_end, step):
    table = integrate(st0, s_end, step).identities
    for values, shown, st in zip(table.values.T, table.shown.T, table.columns.T.tolist()):
        _, a_, b_, fp_, h_, lam_, k_ = map(Fraction, st)
        want = exact_row_values()(a_, b_, fp_, lam_, k_ / h_**2)
        assert all(type(w) is Fraction for w in want)
        sigma = reference_sigma(ReducedState(*st))
        for got, w, m, d in zip(values.tolist(), want, shown, reduced.IDENTITY_DIMS):
            assert not m or abs(Fraction(got) - w) <= ROUNDING * EPS * sigma ** (d / 2)
