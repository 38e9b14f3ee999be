import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from solitonlab.curvature import family_eigenvalues, family_weyl_sq
from solitonlab.errors import DomainError, GridBoundaryError
from solitonlab.families import (broken_family, cylinder_family, family_metric,
                                 flat_family, gaussian_family, product_family,
                                 singular_steady_family, sphere_family)
from solitonlab import fdgrid
from solitonlab.fdgrid import (MetricGrid, _bounding_box, _jet, fd_codazzi_block,
                               fd_curvature, fd_ricci_block, grid_from_family)
from solitonlab.frames import _cholesky, _sym2, sym_eigen, tensor_norm
from solitonlab.verify import codazzi_residual_closed, oracle_deviation

from helpers import ricci_from_riemann, smooth_random_grid


def flat_grid(n=9, spacing=0.1):
    ax = np.arange(n) * spacing
    g = np.tile(np.eye(4), (n, n, n, n, 1, 1))
    return MetricGrid((ax, ax, ax, ax), g)


@pytest.fixture(scope="module")
def steady_grid():
    return grid_from_family(singular_steady_family(), (0.5, 2.0), 129)


def line_nodes(grid, step=1):
    sh = grid.shape
    mid = tuple(n // 2 for n in sh)
    return np.array([(i, mid[1], mid[2], mid[3])
                     for i in range(4, sh[0] - 4, step)])


def narrow_grid(fam, n_s, s_range=(0.5, 2.0), r0=1.0):
    h = (s_range[1] - s_range[0]) / (n_s - 1)
    return grid_from_family(fam, s_range, n_s, r_range=(r0 - 4 * h, r0 + 4 * h), n_r=9)


# ---------------------------------------------------------------------------
# metric derivatives, on the diagonal metric g = field * I of a scalar field

def field_derivs(field, spacings, node):
    """(dg, d2g) of `_jet` at one node of g = field * I."""
    axes = tuple(np.arange(n) * h for n, h in zip(field.shape, spacings))
    grid = MetricGrid(axes, field[..., None, None] * np.eye(4))
    _, dg, d2g = _jet(grid, node, (1, 1, 1, 1))
    return dg[0], d2g[0]


def test_fd_partial_polynomial_exact():
    ax = np.linspace(0.5, 1.5, 9)
    field = np.broadcast_to((ax**3)[:, None, None, None], (9, 5, 5, 5)).copy()
    spacings = (ax[1] - ax[0], 1.0, 1.0, 1.0)
    dg, d2g = field_derivs(field, spacings, (4, 2, 2, 2))
    for i in range(4):
        assert abs(dg[0, i, i] - 3.0 * ax[4] ** 2) <= 1e-12
        assert abs(d2g[0, 0, i, i] - 6.0 * ax[4]) <= 1e-11


def test_fd_partial_sin_accuracy():
    ax = 1.0 + 1e-2 * (np.arange(9) - 4)
    field = np.broadcast_to(np.sin(ax)[:, None, None, None], (9, 5, 5, 5)).copy()
    spacings = (1e-2, 1.0, 1.0, 1.0)
    _, d2g = field_derivs(field, spacings, (4, 2, 2, 2))
    for i in range(4):
        assert abs(d2g[0, 0, i, i] + math.sin(1.0)) <= 1e-8


def test_fd_partial_constant_is_zero():
    field = np.full((9, 5, 5, 5), 3.7)
    dg, d2g = field_derivs(field, (0.1,) * 4, (4, 2, 2, 2))
    assert np.all(dg == 0.0)
    assert np.all(d2g == 0.0)


def jet_reference(grid, node):
    """(g, dg, d2g) at one node from the stencil values one at a time: each
    pure derivative as the 5-point weights over its taps minus g, each mixed
    one as the odd stencil along m, then along l, in that order."""
    h, node = grid.spacings, np.asarray(node)
    at = lambda shift: grid.g[tuple(node + shift)]
    unit = np.eye(4, dtype=int)
    w1, w2 = 8.0 / 12.0, -1.0 / 12.0
    g0 = at(0 * unit[0])
    dg, d2g = np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 4))
    for l in range(4):
        taps = np.stack([at(o * unit[l]) for o in range(-2, 3)]) - g0
        dg[l] = np.tensordot(np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, taps, axes=(0, 0)) / h[l]
        d2g[l, l] = (np.tensordot(np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, taps,
                                  axes=(0, 0)) / h[l] ** 2)
    for l in range(4):
        for m in range(l + 1, 4):
            inner = lambda i: (w1 * (at(i * unit[l] + unit[m]) - at(i * unit[l] - unit[m]))
                               + w2 * (at(i * unit[l] + 2 * unit[m])
                                       - at(i * unit[l] - 2 * unit[m])))
            acc = w1 * (inner(1) - inner(-1)) + w2 * (inner(2) - inner(-2))
            d2g[l, m] = d2g[m, l] = acc / (h[l] * h[m])
    return g0, dg, d2g


def test_box_jet_matches_the_node_by_node_stencils_bit_for_bit():
    grid = smooth_random_grid((10, 9, 9, 10), seed=5)
    lo, shape = (2, 3, 2, 4), (4, 2, 3, 2)
    box = _jet(grid, lo, shape)
    for j, node in enumerate(np.ndindex(*shape)):
        for got, want in zip(box, jet_reference(grid, np.add(lo, node))):
            assert np.array_equal(got[j], want)


# ---------------------------------------------------------------------------
# grid validation

def test_grid_rejects_bad_input():
    ax = np.arange(9) * 0.1
    good = np.tile(np.eye(4), (9, 9, 9, 9, 1, 1))
    with pytest.raises(ValueError):
        MetricGrid((ax, ax, ax, np.array([0.0, 0.1, 0.3])), good[:, :, :, :3])
    bad = good.copy()
    bad[4, 4, 4, 4] = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        MetricGrid((ax, ax, ax, ax), bad)


def test_grid_rejects_bad_broadcast_metric():
    # one bad node in a metric stored once per s-node, broadcast over the rest
    ax = np.arange(9) * 0.1
    asym = np.tile(np.eye(4), (9, 1, 1, 1, 1, 1))
    asym[4, ..., 0, 1] = 1e-3
    indefinite = np.tile(np.eye(4), (9, 1, 1, 1, 1, 1))
    indefinite[4, ..., 3, 3] = -1.0
    for bad in (asym, indefinite):
        with pytest.raises(ValueError):
            MetricGrid((ax, ax, ax, ax), np.broadcast_to(bad, (9, 9, 9, 9, 4, 4)))


@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((2, 2), np.inf),
                                          ((0, 1), np.nan), ((1, 3), np.inf)],
                         ids=["diag-nan", "diag-inf", "off-nan", "off-inf"])
def test_grid_rejects_non_finite_metric(entry, value):
    ax = np.arange(9) * 0.1
    for stored in ((9, 9, 9, 9), (9, 1, 1, 1)):  # dense, and broadcast from one s-line
        bad = np.tile(np.eye(4), stored + (1, 1))
        node = bad[tuple(n // 2 for n in stored)]
        node[entry] = node[entry[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not positive definite on the grid"):
                MetricGrid((ax, ax, ax, ax), np.broadcast_to(bad, (9, 9, 9, 9, 4, 4)))


def test_grid_symmetry_rule_is_relative_to_the_metric_scale():
    # the rule of `frames`: 1e-12 max(1, max |g|), here about 4e-7
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    g = 1e5 * q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
    assert np.max(np.abs(g - g.T)) > 1e-12  # rounding, above the old absolute bound
    ax = np.arange(9) * 0.1
    MetricGrid((ax, ax, ax, ax), np.broadcast_to(g, (9, 9, 9, 9, 4, 4)))
    asym = g.copy()
    asym[0, 1] += 1e-6
    with pytest.raises(ValueError, match="must be symmetric"):
        MetricGrid((ax, ax, ax, ax), np.broadcast_to(asym, (9, 9, 9, 9, 4, 4)))


def test_grid_validation_needs_little_memory_beyond_the_grid():
    tracemalloc.start()
    try:
        grid = grid_from_family(gaussian_family(), (0.5, 2.0), 129, n_r=129)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.g.base.nbytes == 129 * 129 * 9 * 4 * 8  # a diagonal once per (s, r, theta)
    assert peak <= 1.25 * grid.g.base.nbytes


def test_grid_validation_memory_is_bounded_when_one_row_is_large():
    # the leading axis is stride 0, and one row of the next holds 139,425 metrics
    base = np.empty((65, 65, 33, 4, 4))
    base[...] = np.diag([1.0, 2.0, 3.0, 4.0])
    g = np.broadcast_to(base[None], (9,) + base.shape)
    axes = tuple(np.arange(n) * 0.1 for n in g.shape[:4])
    tracemalloc.start()
    try:
        MetricGrid(axes, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # blocks of 16,384 metrics; the grid holds 17 MiB
    base[-1, -1, -1] = np.diag([1.0, 1.0, 1.0, -1.0])  # in the last block
    with pytest.raises(ValueError, match="not positive definite"):
        MetricGrid(axes, g)


DIAGONAL_EDGES = (0.0, -0.0, 5e-324, 1e-310, 1e308, np.inf, -np.inf, np.nan, -1.0)


def lapack_verdict(m):
    """None if `_cholesky(_sym2(m))` accepts the (N, 4, 4) stack m, else the
    grid's message for the exception it raises."""
    try:
        with np.errstate(invalid="ignore"):
            _cholesky(_sym2(m, m.shape))
    except DomainError:
        return "metric is not positive definite on the grid"
    except ValueError:
        return "metric components must be symmetric"
    return None


def grid_verdict(node_metric, stored):
    """None if a MetricGrid holding node_metric at one node of an identity
    grid is accepted, else its message.  The grid stores full metrics
    densely or broadcast from one s-line, or, given the stored shape
    "diagonal", each node's diagonal densely (node_metric must be one)."""
    ax = np.arange(9) * 0.1
    if stored == "diagonal":
        assert not np.any(node_metric[~np.eye(4, dtype=bool)])
        g = np.ones((9, 9, 9, 9, 4))
        g[4, 4, 4, 4] = np.diagonal(node_metric)
    else:
        g = np.tile(np.eye(4), stored + (1, 1))
        g[tuple(n // 2 for n in stored)] = node_metric
        g = np.broadcast_to(g, (9, 9, 9, 9, 4, 4))
    try:
        MetricGrid((ax, ax, ax, ax), g)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("stored", [(9, 9, 9, 9), (9, 1, 1, 1), "diagonal"],
                         ids=["dense", "broadcast", "diagonal"])
@pytest.mark.parametrize("value", DIAGONAL_EDGES)
def test_diagonal_grid_validation_decides_as_lapack(value, stored):
    m = np.diag([1.0, 2.0, value, 4.0])
    want = lapack_verdict(m[None])
    assert (want is None) == (value > 0.0 and math.isfinite(value))
    assert grid_verdict(m, stored) == want


def test_positive_diagonal_agrees_with_lapack_on_random_diagonals():
    rng = np.random.default_rng(24)
    diags = rng.choice(np.array(DIAGONAL_EDGES + (1.0, 2.5)), size=(4000, 4))
    stacks = np.zeros((len(diags), 4, 4))
    stacks[:, range(4), range(4)] = diags
    for m in stacks:
        assert grid_verdict(m, "diagonal") == lapack_verdict(m[None])


@pytest.mark.parametrize("stored", [(9, 9, 9, 9), (9, 1, 1, 1)], ids=["dense", "broadcast"])
def test_off_diagonal_metrics_still_take_the_lapack_route(stored):
    indefinite = np.eye(4)
    indefinite[0, 1] = indefinite[1, 0] = 2.0  # positive diagonal, a negative pivot
    assert grid_verdict(indefinite, stored) == "metric is not positive definite on the grid"
    asym = np.eye(4)
    asym[0, 1] = 1e-3
    assert grid_verdict(asym, stored) == "metric components must be symmetric"
    # the off-diagonal entries decide: a diagonal grid of their diagonals
    # is accepted, as LAPACK accepts those
    for m in (indefinite, asym):
        d = np.diag(np.diagonal(m))
        assert grid_verdict(d, "diagonal") == lapack_verdict(d[None]) is None


# ---------------------------------------------------------------------------
# curvature of grids

def test_fd_curvature_flat_grid_exactly_zero():
    b = fd_curvature(flat_grid(), (4, 4, 4, 4))
    assert np.all(b.christoffel == 0.0)
    assert np.all(b.riem == 0.0)
    assert np.all(b.ric == 0.0)
    assert b.scalar == 0.0
    assert np.all(b.weyl == 0.0)
    assert np.all(b.codazzi_residual == 0.0)


def test_fd_curvature_boundary_error(steady_grid):
    with pytest.raises(GridBoundaryError):
        fd_curvature(steady_grid, (2, 4, 64, 4))


@pytest.mark.parametrize("block, first_bad, later_bad", [
    (fd_ricci_block, (10, 4, 1, 4), (32, 4, 4, 4)),
    (fd_codazzi_block, (10, 4, 3, 4), (29, 4, 4, 4)),
], ids=["ricci", "codazzi"])
def test_block_boundary_error_names_first_bad_node(block, first_bad, later_bad):
    grid = narrow_grid(singular_steady_family(), 33)
    nodes = [(i, 4, 4, 4) for i in range(4, 29)]
    nodes[6:6] = [first_bad]
    nodes.append(later_bad)
    with pytest.raises(GridBoundaryError, match=re.escape(f"node {first_bad} ")):
        block(grid, np.array(nodes))


# the batch entry points, and the one-node bundle node by node
BATCH_CALLS = {
    "ricci": fd_ricci_block,
    "codazzi": fd_codazzi_block,
    "oracle": lambda grid, nodes: oracle_deviation(singular_steady_family(), grid, nodes),
}
NODE_CALLS = dict(BATCH_CALLS,
                  bundle=lambda grid, nodes: [fd_curvature(grid, node) for node in nodes])


@pytest.mark.parametrize("call", NODE_CALLS.values(), ids=NODE_CALLS.keys())
@pytest.mark.parametrize("nodes, first_bad", [
    ([[10.7, 4, 4, 4]], (10.7, 4.0, 4.0, 4.0)),
    ([[10, 4, 4, 4], [11, 4, np.nan, 4], [12.5, 4, 4, 4]], (11.0, 4.0, np.nan, 4.0)),
    ([[12, 4, 4, np.inf]], (12.0, 4.0, 4.0, np.inf)),
], ids=["fraction", "nan", "inf"])
def test_non_integer_node_index_is_rejected_not_truncated(call, nodes, first_bad):
    grid = narrow_grid(singular_steady_family(), 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"node {first_bad} has an index")):
            call(grid, np.array(nodes))


@pytest.mark.parametrize("call", BATCH_CALLS.values(), ids=BATCH_CALLS.keys())
@pytest.mark.parametrize("nodes", [[[10, 4, 4]], np.zeros((2, 4, 1), dtype=int), [],
                                   [[10, 4, 4, 4, 4]]], ids=["3-index", "3-d", "empty-list", "5-index"])
def test_node_batch_of_another_shape_is_rejected(call, nodes):
    grid = narrow_grid(singular_steady_family(), 33)
    shape = np.shape(nodes)
    with pytest.raises(ValueError, match=re.escape(f"not {shape}")):
        call(grid, nodes)


def test_bundle_takes_exactly_one_node():
    grid = narrow_grid(singular_steady_family(), 33)
    for node in ([(16, 4, 4, 4)], (16, 4, 4), (16, 4, 4, 4, 4)):
        with pytest.raises(ValueError, match=re.escape(f"node must have shape (4,), not "
                                                       f"{np.shape(node)}")):
            fd_curvature(grid, node)
    a, b = fd_curvature(grid, (16, 4, 4, 4)), fd_curvature(grid, np.array([16.0, 4, 4, 4]))
    assert np.array_equal(a.codazzi_residual, b.codazzi_residual) and a.scalar == b.scalar


@pytest.mark.parametrize("dtype", [int, float])
def test_empty_node_batches_give_empty_arrays(dtype):
    grid = narrow_grid(singular_steady_family(), 33)
    nodes = np.empty((0, 4), dtype=dtype)
    blk = fd_ricci_block(grid, nodes)
    assert {key: val.shape for key, val in blk.items()} == {
        "g": (0, 4, 4), "ric": (0, 4, 4), "scalar": (0,)}
    assert fd_codazzi_block(grid, nodes).shape == (0, 4, 4, 4)


@pytest.mark.parametrize("fam", [singular_steady_family(), gaussian_family()],
                         ids=["doubly_warped", "warped3"])
def test_block_rows_follow_shuffled_duplicated_and_sparse_nodes(fam):
    grid = narrow_grid(fam, 65)
    nodes = line_nodes(grid)
    shuffled = np.random.default_rng(31).permutation(len(nodes))
    duplicated = np.concatenate([shuffled, shuffled[:9]])
    sparse = [5, 0, 5, 17]
    ricci, codazzi = fd_ricci_block(grid, nodes), fd_codazzi_block(grid, nodes)
    for pick in (shuffled, duplicated, sparse):
        for key, val in fd_ricci_block(grid, nodes[pick]).items():
            assert np.array_equal(val, ricci[key][pick])
    for pick in (shuffled, duplicated, sparse):  # sparse: a smaller box
        assert np.array_equal(fd_codazzi_block(grid, nodes[pick]), codazzi[pick])
    for j in (0, 17, len(nodes) - 1):  # a one-node box
        assert np.array_equal(fd_codazzi_block(grid, nodes[j]), codazzi[j:j + 1])
        bundle = fd_curvature(grid, nodes[j])
        assert np.array_equal(bits(bundle.codazzi_residual), bits(codazzi[j]))
        for key in ("g", "ric", "scalar"):
            assert np.array_equal(bits(getattr(bundle, key)), bits(ricci[key][j]))


@pytest.mark.parametrize("fam, cross", [(singular_steady_family(), 9), (gaussian_family(), 13)],
                         ids=["doubly_warped", "warped3"])
def test_fd_curvature_reads_its_node_off_its_codazzi_cross(fam, cross, monkeypatch):
    # a node's Codazzi cross: 5 nodes along s, and 2 on each side along each
    # other axis that is not stride-0.  The bundle builds no jet of its own,
    # evaluates Ricci once per cross node and Riemann on box 0 only.
    rows = {"_jet": lambda grid, lo, shape: math.prod(shape),
            "_ricci": lambda dg, *rest: len(dg), "_riemann": lambda g0, *rest: len(g0)}
    seen = dict.fromkeys(rows, 0)
    for name, count in rows.items():
        def counted(*args, real=getattr(fdgrid, name), name=name, count=count):
            seen[name] += count(*args)
            return real(*args)
        monkeypatch.setattr(fdgrid, name, counted)
    fd_curvature(narrow_grid(fam, 33), (16, 4, 4, 4))
    assert seen == {"_jet": cross, "_ricci": cross, "_riemann": 5}


def test_sparse_nodes_of_a_dense_grid_match_the_full_box():
    grid = smooth_random_grid((12, 11, 10, 10), seed=2)
    nodes = grid.interior_nodes(margin=2)
    pick = [40, 3, 40, len(nodes) - 1, 77]
    full = fd_ricci_block(grid, nodes)
    for key, val in fd_ricci_block(grid, nodes[pick]).items():
        assert np.array_equal(val, full[key][pick])
    inner = grid.interior_nodes()
    assert len(inner) > 1 and np.ptp(inner, axis=0).min() > 0  # spans all four axes
    assert np.array_equal(fd_codazzi_block(grid, inner[::-3]),
                          fd_codazzi_block(grid, inner)[::-3])


def test_codazzi_block_peak_memory_on_a_long_s_line():
    # the 257-node sphere grid of the benchmark's Codazzi probe
    grid = narrow_grid(sphere_family(), 257, s_range=(0.5, 0.5 + 1.5))
    nodes = line_nodes(grid)
    tracemalloc.start()
    try:
        fd_codazzi_block(grid, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == 249
    assert peak < 2.25 * 2**20


def test_ricci_block_on_its_own_box_returns_the_box_arrays(steady_grid):
    # interior_nodes are the box in C order: no pick, so no copy of the outputs
    nodes = steady_grid.interior_nodes()
    tracemalloc.start()
    try:
        blk = fd_ricci_block(steady_grid, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(val.nbytes for val in blk.values())
    assert out == len(nodes) * (2 * 16 + 1) * 8
    assert peak < 1.1 * out


# ---------------------------------------------------------------------------
# compact grids: g stored once per non-Killing node, broadcast along the rest

COMPACT_CASES = [(product_family(-1.0), (False, True, False, True)),
                 (cylinder_family(2.0), (False, False, False, True))]


@pytest.mark.parametrize("fam, killing", COMPACT_CASES, ids=["product", "warped3"])
def test_compact_grid_is_read_only_broadcast_on_killing_axes(fam, killing):
    grid = narrow_grid(fam, 33)
    assert tuple(st == 0 for st in grid.g.strides[:4]) == killing
    assert grid.broadcast_axes == killing
    assert not grid.g.flags.writeable


@pytest.mark.parametrize("fam, killing", COMPACT_CASES, ids=["product", "warped3"])
def test_compact_grid_matches_dense_copy_bit_for_bit(fam, killing):
    grid = narrow_grid(fam, 33)
    dense = MetricGrid(grid.axes, np.ascontiguousarray(grid.g))
    assert not any(dense.broadcast_axes)
    nodes = line_nodes(grid)
    for key, val in fd_ricci_block(grid, nodes).items():
        assert np.array_equal(val, fd_ricci_block(dense, nodes)[key])
    assert np.array_equal(fd_codazzi_block(grid, nodes), fd_codazzi_block(dense, nodes))
    a, b = fd_curvature(grid, nodes[10]), fd_curvature(dense, nodes[10])
    for field in ("g", "christoffel", "riem", "ric", "weyl", "codazzi_residual"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.scalar == b.scalar


ALL_FAMILIES = [singular_steady_family(), product_family(-1.0), gaussian_family(),
                cylinder_family(2.0), sphere_family(), flat_family(), broken_family()]


def full_metric_grid(fam, grid):
    """The MetricGrid of ``grid``'s axes holding `family_metric`'s 4 x 4
    matrices, broadcast along the Killing axes."""
    s, a1, a2, _ = grid.axes
    if fam.p is None:
        g = family_metric(fam, s, a1, a2)[:, :, :, None]
    else:
        g = family_metric(fam, s, a2)[:, None, :, None]
    return MetricGrid(grid.axes, np.broadcast_to(g, grid.shape + (4, 4)))


def bits(a):
    """The float64 bits of an array or a float, as int64, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("fam, n_s", [(fam, n) for n in (33, 65) for fam in ALL_FAMILIES]
                         + [(gaussian_family(), "full")],
                         ids=lambda case: getattr(case, "name", str(case)))
def test_diagonal_and_full_layouts_give_the_same_bits(fam, n_s):
    if n_s == "full":  # every interior node of a warped3 grid
        diag = grid_from_family(fam, (0.5, 2.0), 33, n_r=33)
        nodes = diag.interior_nodes()
    else:
        diag = narrow_grid(fam, n_s)
        nodes = line_nodes(diag)
    full = full_metric_grid(fam, diag)
    assert diag.g.shape[4:] == (4,) and full.g.shape[4:] == (4, 4)
    a, b = fd_ricci_block(diag, nodes), fd_ricci_block(full, nodes)
    for key in ("g", "ric", "scalar"):
        assert np.array_equal(bits(a[key]), bits(b[key]))
    assert np.array_equal(bits(fd_codazzi_block(diag, nodes)),
                          bits(fd_codazzi_block(full, nodes)))
    mid = tuple(n // 2 for n in diag.shape)
    a, b = fd_curvature(diag, mid), fd_curvature(full, mid)
    for field in ("g", "christoffel", "riem", "ric", "scalar", "weyl", "codazzi_residual"):
        assert np.array_equal(bits(getattr(a, field)), bits(getattr(b, field)))


@pytest.mark.parametrize("fam, killing", [
    (singular_steady_family(), (False, True, False, True)),
    (gaussian_family(), (False, False, False, True)),
], ids=["doubly_warped", "warped3"])
def test_derivatives_along_killing_axes_are_exactly_zero(fam, killing):
    # the compact grid skips them; its dense copy computes them, as exact 0s
    grid = narrow_grid(fam, 33)
    dense = MetricGrid(grid.axes, np.ascontiguousarray(grid.g))
    assert grid.broadcast_axes == killing
    for g in (grid, dense):
        lo, shape, _ = _bounding_box(g, line_nodes(grid))
        _, dg, d2g = _jet(g, lo, shape)
        for l in range(4):
            assert np.all(dg[:, l] == 0.0) or not killing[l]
            for m in range(4):
                if killing[l] or killing[m]:
                    assert np.all(d2g[:, l, m] == 0.0)
        # the metric itself has a mixed derivative off the Killing axes
        free = [l for l in range(4) if not killing[l]]
        assert any(np.any(d2g[:, l, m] != 0.0) for l in free for m in free if l != m)


# ---------------------------------------------------------------------------
# Codazzi from one Ricci field, evaluated in bounded node blocks

def codazzi_reference(grid, nodes):
    """Codazzi residual from fd_ricci_block on the shifted node sets of the
    5-point first-derivative stencil along all four axes, contracted with
    Christoffel symbols from the same stencil applied to grid.g."""
    h = grid.spacings
    center = fd_ricci_block(grid, nodes)
    ric, scalar, g = center["ric"], center["scalar"], center["g"]
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    dg = np.zeros((len(nodes), 4, 4, 4))
    dric = np.zeros((len(nodes), 4, 4, 4))
    dscal = np.zeros((len(nodes), 4))
    for l in range(4):
        for w, off in zip(weights, range(-2, 3)):
            shifted_nodes = nodes.copy()
            shifted_nodes[:, l] += off
            shifted = fd_ricci_block(grid, shifted_nodes)
            dg[:, l] += w * (shifted["g"] - g) / h[l]
            dric[:, l] += w * (shifted["ric"] - ric) / h[l]
            dscal[:, l] += w * (shifted["scalar"] - scalar) / h[l]
    bracket = (np.einsum("nadb->nabd", dg) + np.einsum("nbda->nabd", dg)
               - np.einsum("ndab->nabd", dg))
    gam = 0.5 * np.einsum("ncd,nabd->ncab", np.linalg.inv(g), bracket)
    cov = (dric - np.einsum("nmki,nmj->nkij", gam, ric)
           - np.einsum("nmkj,nim->nkij", gam, ric))
    return (cov - cov.transpose(0, 2, 1, 3)
            + (np.einsum("ni,nkj->nkij", dscal, g) - np.einsum("nk,nij->nkij", dscal, g)) / 6.0)


def codazzi_case(name):
    if name == "dense_random":
        grid = smooth_random_grid((11, 10, 9, 9))
        return grid, grid.interior_nodes()
    if name == "warped3":
        grid = narrow_grid(cylinder_family(2.0), 33)
        return grid, line_nodes(grid)
    # doubly-warped, more nodes than one block
    grid = grid_from_family(product_family(-1.0), (0.5, 2.0), 65,
                            r_range=(0.6, 0.6 + 12 * 1.5 / 64), n_r=13)
    return grid, grid.interior_nodes()


@pytest.mark.parametrize("case", ["dense_random", "warped3", "product_over_block"])
def test_codazzi_block_matches_shifted_ricci_reference(case):
    grid, nodes = codazzi_case(case)
    if case == "product_over_block":
        assert len(nodes) > 256
    got = fd_codazzi_block(grid, nodes)
    want = codazzi_reference(grid, nodes)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(want)) > 1e-9   # the residual is not trivially 0


@pytest.mark.parametrize("case", ["dense_random", "warped3", "product_over_block"])
def test_ricci_from_the_connection_matches_the_riemann_route(case):
    grid, nodes = codazzi_case(case)
    nodes = nodes[::max(1, len(nodes) // 40)]
    blk = fd_ricci_block(grid, nodes)
    for j, node in enumerate(nodes):
        b = fd_curvature(grid, node)
        ric = blk["ric"][j]
        scale = max(1.0, np.max(np.abs(ric)))
        want = ricci_from_riemann(b.riem, b.g)
        assert np.max(np.abs(ric - want)) <= 1e-13 * scale
        assert abs(blk["scalar"][j] - np.sum(np.linalg.inv(b.g) * want)) <= 1e-13 * scale
        assert np.max(np.abs(ric - ric.T)) <= 1e-14 * scale


def test_ricci_block_across_block_boundaries_matches_per_node():
    grid = smooth_random_grid((9, 9, 8, 8), seed=1)
    nodes = grid.interior_nodes(margin=2)
    assert len(nodes) > 256
    blk = fd_ricci_block(grid, nodes)
    for j, node in enumerate(nodes):
        one = fd_ricci_block(grid, node)
        for key in ("g", "ric", "scalar"):
            assert np.array_equal(blk[key][j], one[key][0])


def test_ricci_block_peak_memory_on_full_grid(steady_grid):
    nodes = steady_grid.interior_nodes()
    tracemalloc.start()
    try:
        fd_ricci_block(steady_grid, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == 121 * 121
    assert peak < 32 * 2**20


def test_build_and_ricci_of_a_full_grid_hold_little_beyond_grid_and_outputs():
    # the job shape of the benchmark's full-grid oracle: build a 129-node
    # warped3 grid, then FD Ricci on all of its interior nodes
    tracemalloc.start()
    try:
        grid = grid_from_family(cylinder_family(2.0), (0.5, 2.0), 129, n_r=129)
        nodes = grid.interior_nodes()
        blk = fd_ricci_block(grid, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = grid.g.base.nbytes + sum(val.nbytes for val in blk.values()) + nodes.nbytes
    assert grid.g.base.nbytes == 129 * 129 * 9 * 4 * 8
    assert peak <= held + 2**20


def test_fd_singular_steady_ricci_at_s1(steady_grid):
    fam = singular_steady_family()
    i_s = int(np.argmin(np.abs(steady_grid.axes[0] - 1.0)))
    node = (i_s, 4, 64, 4)
    s = steady_grid.axes[0][i_s]
    b = fd_curvature(steady_grid, node)
    eigs = np.array([w for w, _ in sym_eigen(b.ric, b.g)])
    cf = np.array(family_eigenvalues(fam, s))
    assert np.max(np.abs(eigs - cf[:4])) / abs(cf[4]) <= 1e-6
    assert abs(b.scalar - cf[4]) / abs(cf[4]) <= 1e-6
    # Weyl cross-check, and the |W|^2 s^4 = 16/243 scaling
    weyl_sq = tensor_norm(b.weyl, b.g)
    assert abs(weyl_sq - family_weyl_sq(fam, s)) <= 1e-6 * family_weyl_sq(fam, s)
    assert_allclose(weyl_sq * s**4, 16.0 / 243.0, rtol=1e-6)


def test_fd_singular_steady_line_agreement(steady_grid):
    fam = singular_steady_family()
    worst = oracle_deviation(fam, steady_grid, line_nodes(steady_grid, step=8)).max()
    assert worst <= 1e-6


def test_fd_product_weyl_cross_check():
    fam = product_family(-1.0)
    grid = narrow_grid(fam, 65)
    node = (32, 4, 4, 4)
    b = fd_curvature(grid, node)
    s = grid.axes[0][32]
    cf = family_weyl_sq(fam, s)
    assert abs(tensor_norm(b.weyl, b.g) - cf) <= 1e-6 * cf
    assert_allclose(cf, 4.0 / 3.0, rtol=1e-12)


def test_fd_cylinder_codazzi_vanishes():
    grid = narrow_grid(cylinder_family(2.0), 65)
    b = fd_curvature(grid, (32, 4, 4, 4))
    assert math.sqrt(tensor_norm(b.codazzi_residual, b.g)) < 1e-6


def test_fd_codazzi_matches_closed_form_on_broken_family():
    fam = broken_family()
    grid = narrow_grid(fam, 129)
    i_s = int(np.argmin(np.abs(grid.axes[0] - 1.0)))
    node = (i_s, 4, 4, 4)
    s = grid.axes[0][i_s]
    b = fd_curvature(grid, node)
    fd_norm = math.sqrt(tensor_norm(b.codazzi_residual, b.g))
    rep = codazzi_residual_closed(fam, [s])
    d2 = rep.per_equation["direction_2"]
    d3 = rep.per_equation["direction_3"]
    closed_norm = math.sqrt(2.0 * (d2**2 + 2.0 * d3**2))
    assert abs(fd_norm - closed_norm) <= 1e-5
    assert fd_norm > 1e-2  # pinned broken-family threshold
    assert_allclose(fd_norm, math.sqrt(2.0 * ((1 / (3 * s**2)) ** 2
                                              + 2.0 * (1 / (6 * s**2)) ** 2)),
                    rtol=1e-5)


@pytest.mark.parametrize("fam", [singular_steady_family(), cylinder_family(2.0)],
                         ids=lambda f: f.name)
def test_fd_codazzi_matches_closed_form_on_canonical(fam):
    grid = narrow_grid(fam, 65)
    nodes = np.array([(i, 4, 4, 4) for i in (16, 32, 48)])
    cod = fd_codazzi_block(grid, nodes)
    blk = fd_ricci_block(grid, nodes)
    for j, node in enumerate(nodes):
        s = grid.axes[0][node[0]]
        fd_norm = math.sqrt(tensor_norm(cod[j], blk["g"][j]))
        closed = codazzi_residual_closed(fam, [s]).max_abs
        assert abs(fd_norm - closed) <= 1e-5


def test_fd_convergence_halving_factor():
    # matched s-locations on both grids, so the h^4 ratio is clean
    fam = singular_steady_family()
    devs = []
    for n_s, lo, step in ((65, 8, 8), (129, 16, 16)):
        grid = narrow_grid(fam, n_s)
        nodes = np.array([(i, 4, 4, 4) for i in range(lo, n_s - 4, step)])
        devs.append(oracle_deviation(fam, grid, nodes).max())
    assert devs[0] / devs[1] >= 12.0


@pytest.mark.parametrize("fam, s_range, first_bad", [
    (sphere_family(), (3.0, 3.3), "3.15"),           # across the pole s = pi
    (singular_steady_family(), (-1.0, 1.0), "-1.0"),  # s^(1/3) of a negative s
], ids=["sphere", "singular_steady"])
def test_grid_from_family_rejects_s_outside_the_family_domain(fam, s_range, first_bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^s={re.escape(first_bad)} outside family"):
            grid_from_family(fam, s_range, 33)


@pytest.mark.parametrize("counts, name", [
    ({"n_s": 1}, "n_s"), ({"n_s": 9, "n_r": 1}, "n_r"), ({"n_s": 0}, "n_s"),
    ({"n_s": -9}, "n_s"), ({"n_s": 2.5}, "n_s"), ({"n_s": 33, "n_r": 9.0}, "n_r"),
    ({"n_s": True}, "n_s"), ({"n_s": "33"}, "n_s"),
], ids=["s-one", "r-one", "s-zero", "s-negative", "s-fraction", "r-float", "s-bool",
        "s-string"])
def test_grid_from_family_rejects_bad_node_counts(counts, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 2, not "):
        grid_from_family(product_family(-1.0), (0.5, 2.0), **counts)
    assert grid_from_family(product_family(-1.0), (0.5, 2.0), np.int64(33)).shape == (
        33, 9, 33, 9)
