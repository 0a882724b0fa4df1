import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from occ4d import field
from occ4d.field import (
    Batch,
    FieldConfig,
    MODE_AMORTIZED,
    MODE_FIT_PER_SCENE,
    OutOfRegionError,
    encode,
    encode_backward,
    head_input,
    init_params,
    interp_backward,
    interp_grid,
    lattice_head,
    loss_and_grads,
    pillar_histogram,
    query_head,
    sigmoid,
)
from occ4d.field import _conv_at, _conv_dx, _leaky, _leaky_grad
from occ4d.evaluation import EvalGrid
from occ4d.queries import EncoderInput, QuerySet

from oracles import (
    _pad,
    conv2d_backward_scatter,
    conv2d_scatter,
    encoder_scatter,
    encoder_unfolded_scatter,
    head_block,
    head_block_unsplit,
    interp_backward_add_at,
    leaky_grad_where,
    loss,
    sigmoid_masked,
    zero_params,
)

SMALL = FieldConfig(
    x_range=(-4.0, 4.0),
    y_range=(-4.0, 4.0),
    cell=1.0,
    channels=6,
    z_range=(-1.0, 3.0),
    t_max=3.0,
    n_freqs=2,
    head_hidden=10,
    d_feat=3,
    k_past=2,
)


def random_queryset(rng, cfg, n_occ=14, n_feat=8, n_ego=10):
    def pts(n):
        return np.stack(
            [
                rng.uniform(cfg.x_range[0] + 0.1, cfg.x_range[1] - 0.1, n),
                rng.uniform(cfg.y_range[0] + 0.1, cfg.y_range[1] - 0.1, n),
                rng.uniform(cfg.z_range[0], cfg.z_range[1], n),
            ],
            axis=1,
        )

    tags = np.concatenate(
        [
            rng.integers(0, 3, n_occ),              # ray_neg / ray_pos / missing
            np.full(n_feat, 3),
            np.where(rng.uniform(size=n_ego) < 0.5, 4, 5),
        ]
    ).astype(np.uint8)
    order = np.argsort(tags, kind="stable")
    tags = tags[order]
    n = n_occ + n_feat + n_ego
    labels = np.where(np.isin(tags, [1, 4]), 1, 0).astype(np.uint8)
    return QuerySet(
        tags=tags,
        times=rng.uniform(0, cfg.t_max, n),
        positions=pts(n),
        labels=labels,
        feats=rng.normal(size=(n_feat, cfg.d_feat)),
        d=cfg.d_feat,
    )


def random_enc_input(rng, cfg, n=60):
    sets = []
    for _ in range(cfg.k_past):
        pts = np.stack(
            [
                rng.uniform(cfg.x_range[0], cfg.x_range[1], n),
                rng.uniform(cfg.y_range[0], cfg.y_range[1], n),
                rng.uniform(0.0, 2.0, n),
            ],
            axis=1,
        )
        sets.append(pts)
    return EncoderInput(sets, [-0.5 * (cfg.k_past - 1 - i) for i in range(cfg.k_past)])


def forward_loss(fp, batch, enc_input=None, weights=(1.0, 0.5, 0.1), per_term=True):
    if fp.mode == MODE_AMORTIZED:
        z = encode(fp, enc_input)
    else:
        z = fp.params["grid.z"]
    return loss(fp, z, batch, weights=weights, per_term_average=per_term).total


class TestEncoder:
    def test_empty_scans_zero_grid(self):
        fp = init_params(SMALL, seed=0, mode=MODE_AMORTIZED)
        enc = EncoderInput([np.zeros((0, 3))] * SMALL.k_past, [-0.5, 0.0])
        z = encode(fp, enc)
        assert np.all(z == 0.0)

    def test_single_point_receptive_field(self):
        fp = init_params(SMALL, seed=1, mode=MODE_AMORTIZED)
        # one point in the pillar at grid cell (row 4, col 2)
        x = SMALL.x_range[0] + 2.5 * SMALL.cell
        y = SMALL.y_range[0] + 4.5 * SMALL.cell
        enc = EncoderInput([np.array([[x, y, 1.0]]), np.zeros((0, 3))], [-0.5, 0.0])
        z = encode(fp, enc)
        nz_rows, nz_cols = np.nonzero(np.abs(z).sum(axis=2))[0], np.nonzero(np.abs(z).sum(axis=2))[1]
        assert nz_rows.min() >= 2 and nz_rows.max() <= 6
        assert nz_cols.min() >= 0 and nz_cols.max() <= 4

    def test_histogram_features(self):
        enc = EncoderInput(
            [np.array([[0.2, 0.2, 1.0], [0.3, 0.4, 3.0]]), np.zeros((0, 3))], [-0.5, 0.0]
        )
        hist = pillar_histogram(enc, SMALL)
        row = int((0.2 - SMALL.y_range[0]) / SMALL.cell)
        col = int((0.2 - SMALL.x_range[0]) / SMALL.cell)
        assert hist[row, col, 0] == pytest.approx(math.log1p(2.0))
        assert hist[row, col, 1] == pytest.approx(2.0)
        assert hist[:, :, 2:].sum() == 0.0

    def test_points_outside_region_ignored(self):
        enc = EncoderInput([np.array([[99.0, 0.0, 1.0]]), np.zeros((0, 3))], [-0.5, 0.0])
        hist = pillar_histogram(enc, SMALL)
        assert hist.sum() == 0.0


def same_bits(a, b):
    """Equal dtypes, shapes and unsigned-integer views: equal values, signs
    of zero (np.signbit) and NaN bits included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    uint = f"u{a.itemsize}"
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(uint), b.view(uint))


def round_off_close(a, b):
    """Equal dtypes and shapes, and every entry within round-off of the
    other: 1e-12 (float64) or 1e-5 (float32) of b's largest entry."""
    tol = 1e-12 if b.dtype == np.float64 else 1e-5
    return a.dtype == b.dtype and a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * np.max(np.abs(b), initial=0.0)


# float64 at every shape; float32, the dtype training steps in, at the
# default grid and at a shape where BLAS's NN and NT paths round apart
CONV_CASES = [(72, 72, 32, 32), (9, 7, 16, 32), (9, 7, 5, 3), (7, 9, 3, 5), (5, 1, 4, 4), (1, 1, 2, 3)]
CONV_CASES = [(*c, np.float64) for c in CONV_CASES] + [(72, 72, 32, 32, np.float32), (9, 7, 16, 32, np.float32)]


@pytest.mark.parametrize(
    "h, w, cin, cout, dtype",
    CONV_CASES,
    ids=["-".join(map(str, c[:4])) + ("-float32" if c[4] == np.float32 else "") for c in CONV_CASES],
)
@pytest.mark.parametrize("zero_rows", [0.0, 0.6])
def test_conv_same_bits_as_scatter_form(h, w, cin, cout, dtype, zero_rows):
    """The windowed conv at every cell, its dw (windows^T dout) and its
    scattered dx agree with the scatter form to round-off; one GEMM over a
    cell's whole window sums in another order than the form's tap-by-tap
    GEMMs. At 32 output channels the conv's rows at a subset of the cells
    have the same bits as at every cell: OpenBLAS computes each GEMM row on
    its own at that width (at 3-5 columns a row's bits depend on the row
    count)."""
    # zero_rows zeroes whole cells of dout, as the sparse dZ that conv2's
    # backward gets from the interpolation; some entries are -0.0
    rng = np.random.default_rng(h * 100 + w)
    x = rng.normal(size=(h, w, cin)).astype(dtype)
    x[rng.uniform(size=x.shape) < 0.1] = -0.0
    wt, b = rng.normal(size=(3, 3, cin, cout)).astype(dtype), rng.normal(size=cout).astype(dtype)
    dout = rng.normal(size=(h, w, cout)).astype(dtype)
    dout[rng.uniform(size=(h, w)) < zero_rows] = 0.0
    dout[rng.uniform(size=dout.shape) < 0.1] = -0.0
    xp, p, taps = _pad(x).reshape(-1, cin), field._padded(np.arange(h * w), w), field._taps(w)
    windows, out = _conv_at(xp, p, taps, wt, b)
    assert round_off_close(out.reshape(h, w, cout), conv2d_scatter(x, wt, b))
    flat_dout = dout.reshape(-1, cout)
    got = (windows.T @ flat_dout).reshape(wt.shape), flat_dout.sum(axis=0), _conv_dx(flat_dout, wt, p, taps, len(xp))
    want_dw, want_db, want_dx = conv2d_backward_scatter(x, wt, dout)
    assert round_off_close(got[0], want_dw) and same_bits(got[1], want_db)
    assert round_off_close(got[2].reshape(h + 2, w + 2, cin)[1:-1, 1:-1], want_dx)
    if cout == 32:
        cells = np.sort(rng.choice(h * w, size=max(1, h * w // 3), replace=False))
        assert same_bits(_conv_at(xp, p[cells], taps, wt, b)[1], out[cells])


@pytest.mark.parametrize(
    "cfg",
    [SMALL, FieldConfig(x_range=(-4.0, 4.0), y_range=(-2.0, 3.5), cell=0.5, channels=5), FieldConfig()],
    ids=["small", "non-square", "default-72x72x32"],
)
def test_encoder_same_bits_as_scatter_form(cfg):
    """float64: Z at every cell agrees with the scatter form to round-off,
    and Z at a third of the cells has the bits of those rows; the gradients
    from dZ at those cells agree with the scatter form's from the same dZ,
    zero elsewhere, to round-off."""
    rng = np.random.default_rng(8)
    fp = init_params(cfg, seed=4, mode=MODE_AMORTIZED)
    for name in ("enc.embed.b", "enc.conv1.b", "enc.conv2.b"):
        fp.params[name] = rng.normal(size=fp.params[name].shape)
    enc = random_enc_input(rng, cfg, n=400)
    z = encode(fp, enc)
    dz = np.zeros_like(z)
    cells = np.sort(rng.choice(z.shape[0] * z.shape[1], size=z.shape[0] * z.shape[1] // 3, replace=False))
    dz.reshape(-1, cfg.channels)[cells] = rng.normal(size=(len(cells), cfg.channels))
    want_z, want = encoder_scatter(fp.params, pillar_histogram(enc, cfg), dz, cfg.leaky_slope)
    assert round_off_close(z, want_z)
    rows, cache = encode(fp, enc, cells, want_cache=True)
    assert same_bits(rows, z.reshape(-1, cfg.channels)[cells])
    got = encode_backward(fp, cache, dz.reshape(-1, cfg.channels)[cells])
    assert got.keys() == want.keys()
    for name in want:
        assert round_off_close(got[name], want[name]), name


def query_cells(cfg, xy):
    """The distinct corner cells that queries at ``xy`` read."""
    return np.unique(field._interp_setup(xy[:, 0], xy[:, 1], cfg, np.float64)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h, w", [(1, 5), (5, 1), (9, 7)], ids=["1x5", "5x1", "9x7"])
def test_encode_on_a_batchs_cells_same_bits_as_every_cell(h, w, dtype):
    """At the default 32 channels, Z at the cells that a batch reads has the
    bits of those rows of Z at every cell, for random cell sets, a batch on
    the grid's border, one at the region's corner and one that reads every
    cell; the gradients from dZ at a batch's cells agree with the scatter
    form's to round-off."""
    cfg = FieldConfig(x_range=(0.0, 0.5 * w), y_range=(0.0, 0.5 * h), cell=0.5)
    rng = np.random.default_rng(h * 10 + w)
    fp = init_params(cfg, seed=6, mode=MODE_AMORTIZED)
    for name in ("enc.embed.b", "enc.conv1.b", "enc.conv2.b"):
        fp.params[name] = rng.normal(size=fp.params[name].shape)
    fp = fp.astype(dtype)
    enc = random_enc_input(rng, cfg, n=60)
    whole = encode(fp, enc).reshape(-1, cfg.channels)
    lo, hi = np.array([cfg.x_range[0], cfg.y_range[0]]), np.array([cfg.x_range[1], cfg.y_range[1]])
    edge = rng.uniform(lo, hi, size=(50, 2))
    edge[:25, 0] = rng.choice([lo[0], hi[0]], 25)
    edge[25:, 1] = rng.choice([lo[1], hi[1]], 25)
    batches = {
        "border": query_cells(cfg, edge),
        "corner": query_cells(cfg, np.array([lo, lo + 0.1])),
        "every cell": query_cells(cfg, rng.uniform(lo, hi, size=(2000, 2))),
    }
    assert len(batches["every cell"]) == h * w
    for k in range(5):
        batches[f"random {k}"] = np.sort(rng.choice(h * w, size=rng.integers(1, h * w + 1), replace=False))
    for kind, cells in batches.items():
        rows, cache = encode(fp, enc, cells, want_cache=True)
        assert same_bits(rows, whole[cells]), kind
        dz = np.zeros((h * w, cfg.channels))
        dz[cells] = rng.normal(size=(len(cells), cfg.channels))
        params64 = fp.astype(np.float64).params
        want = encoder_scatter(params64, pillar_histogram(enc, cfg), dz.reshape(h, w, -1), cfg.leaky_slope)[1]
        got = encode_backward(fp, cache, dz[cells].astype(dtype))
        for name in want:
            assert round_off_close(got[name], want[name].astype(dtype)), (kind, name)


@pytest.mark.parametrize(
    "cfg, n_points",
    [
        (SMALL, 400),
        (FieldConfig(x_range=(-4.0, 4.0), y_range=(-2.0, 3.5), cell=0.5, channels=5), 400),
        (FieldConfig(), 400),
        (FieldConfig(x_range=(0.0, 0.5), y_range=(-2.0, 3.5), cell=0.5, channels=4), 400),
        (replace(SMALL, k_past=1), 400),
        (SMALL, 0),
    ],
    ids=["small", "non-square", "default-72x72x32", "one-cell-wide", "k_past-1", "empty-scans"],
)
def test_encoder_matches_unfolded_form(cfg, n_points):
    # folding the embed into conv1 reorders sums and nothing else: in float64,
    # z and every gradient agree with the unfolded encoder to 1e-12 of the
    # tensor's largest entry. In non-square, 2 * k_past + 1 = 7 exceeds the 5
    # channels. With empty scans only the embed's bias reaches conv1, and the
    # pad ring must hold zeros, not the bias
    rng = np.random.default_rng(9)
    fp = init_params(cfg, seed=5, mode=MODE_AMORTIZED)
    for name in ("enc.embed.b", "enc.conv1.b", "enc.conv2.b"):
        fp.params[name] = rng.normal(size=fp.params[name].shape)
    enc = random_enc_input(rng, cfg, n=n_points)
    z, cache = encode(fp, enc, want_cache=True)
    dz = rng.normal(size=z.shape)
    want_z, want = encoder_unfolded_scatter(fp.params, pillar_histogram(enc, cfg), dz, cfg.leaky_slope)
    got = encode_backward(fp, cache, dz)
    assert got.keys() == want.keys()
    for name, a, b in [("z", z, want_z), *((k, got[k], want[k]) for k in want)]:
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


class TestFieldConfigGeometry:
    def test_reversed_x_range_rejected(self):
        with pytest.raises(ValueError, match=r"a -72 x 72 grid; x and y each need at least one cell"):
            FieldConfig(x_range=(18.0, -18.0))

    def test_range_thinner_than_a_cell_rejected(self):
        with pytest.raises(ValueError, match=r"a 72 x 0 grid; x and y each need at least one cell"):
            FieldConfig(y_range=(0.0, 0.2))

    @pytest.mark.parametrize(
        "bad", [{"cell": math.nan}, {"x_range": (-18.0, math.inf)}, {"z_range": (math.nan, 3.0)}, {"t_max": math.inf}]
    )
    def test_nonfinite_geometry_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            FieldConfig(**bad)

    @pytest.mark.parametrize("z_range", [(3.0, -0.4), (1.0, 1.0)])
    def test_reversed_z_range_rejected(self, z_range):
        with pytest.raises(ValueError, match="must run from low to high"):
            FieldConfig(z_range=z_range)

    @pytest.mark.parametrize("t_max", [0.0, -3.0])
    def test_nonpositive_t_max_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max must be positive"):
            FieldConfig(t_max=t_max)

    def test_one_cell_grid_accepted(self):
        cfg = FieldConfig(x_range=(0.0, 0.5), y_range=(-0.5, 0.0))
        assert (cfg.grid_w, cfg.grid_h) == (1, 1)


class TestQuery:
    def test_cell_center_exact(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(SMALL.grid_h, SMALL.grid_w, SMALL.channels))
        # center of cell (3, 5)
        x = SMALL.x_range[0] + 5.5 * SMALL.cell
        y = SMALL.y_range[0] + 3.5 * SMALL.cell
        corners, weights = field._interp_setup(np.array([x]), np.array([y]), SMALL, z.dtype)
        out = interp_grid(z.reshape(-1, SMALL.channels), corners, weights)
        np.testing.assert_array_equal(out[0], z[3, 5])

    def test_continuity_small_perturbation(self):
        rng = np.random.default_rng(3)
        fp = init_params(SMALL, seed=4, mode=MODE_FIT_PER_SCENE)
        fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape)
        pts = np.stack(
            [
                rng.uniform(-3.9, 3.9, 1000),
                rng.uniform(-3.9, 3.9, 1000),
                rng.uniform(-0.9, 2.9, 1000),
            ],
            axis=1,
        )
        ts = rng.uniform(0, 3, 1000)
        base = {name: query_head(fp, fp.params["grid.z"], name, pts, ts) for name in ("occ", "feat", "ego")}
        for dim in range(4):
            bumped = pts.copy()
            tb = ts.copy()
            if dim < 3:
                bumped[:, dim] += 1e-9
            else:
                tb = ts + 1e-9
            for name, out in base.items():
                assert np.abs(query_head(fp, fp.params["grid.z"], name, bumped, tb) - out).max() < 1e-6

    def test_out_of_region_raises(self):
        fp = init_params(SMALL, seed=5, mode=MODE_FIT_PER_SCENE)
        with pytest.raises(OutOfRegionError):
            query_head(fp, fp.params["grid.z"], "occ", np.array([[99.0, 0.0, 1.0]]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [0.0, np.nan, 1.0], [np.nan, np.nan, 1.0]])
    def test_nan_position_is_out_of_region(self, bad):
        # NaN compares False with every bound, so it must fail an "all inside"
        # test rather than reach the int64 cast of the cell index
        fp = init_params(SMALL, seed=5, mode=MODE_FIT_PER_SCENE)
        pts = np.array([[0.5, -0.5, 1.0], bad])
        with pytest.raises(OutOfRegionError):
            query_head(fp, fp.params["grid.z"], "occ", pts, np.zeros(2))
        with pytest.raises(OutOfRegionError):
            lattice_head(fp, fp.params["grid.z"], "occ", pts[:, :2], [1.0], 0.0)


class TestLoss:
    def test_bce_at_zero_logits(self):
        fp = zero_params(SMALL, MODE_FIT_PER_SCENE)
        qs = QuerySet(
            tags=np.array([0], np.uint8),
            times=np.array([1.0]),
            positions=np.array([[0.0, 0.0, 1.0]]),
            labels=np.array([0], np.uint8),
            feats=np.zeros((0, SMALL.d_feat)),
            d=SMALL.d_feat,
        )
        terms = loss(fp, fp.params["grid.z"], qs, weights=(1.0, 0.0, 0.0))
        assert terms.total == pytest.approx(math.log(2.0), abs=1e-12)

    def test_exact_feature_target_zero_term(self):
        fp = init_params(SMALL, seed=8, mode=MODE_FIT_PER_SCENE)
        pos = np.array([[0.3, -0.2, 1.0]])
        t = np.array([0.7])
        feat = query_head(fp, fp.params["grid.z"], "feat", pos, t)
        qs = QuerySet(
            tags=np.array([3], np.uint8),
            times=t,
            positions=pos,
            labels=np.array([0], np.uint8),
            feats=feat,
            d=SMALL.d_feat,
        )
        terms = loss(fp, fp.params["grid.z"], qs)
        assert terms.feat == 0.0

    def test_decomposition_single_lambda(self):
        rng = np.random.default_rng(9)
        fp = init_params(SMALL, seed=10, mode=MODE_FIT_PER_SCENE)
        qs = random_queryset(rng, SMALL)
        z = fp.params["grid.z"]
        full = loss(fp, z, qs, weights=(1.0, 1.0, 1.0))
        only_occ = loss(fp, z, qs, weights=(1.0, 0.0, 0.0))
        only_feat = loss(fp, z, qs, weights=(0.0, 1.0, 0.0))
        only_ego = loss(fp, z, qs, weights=(0.0, 0.0, 1.0))
        assert only_occ.total == pytest.approx(full.occ, abs=1e-15)
        assert only_feat.total == pytest.approx(full.feat, abs=1e-15)
        assert only_ego.total == pytest.approx(full.ego, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        fp = init_params(SMALL, seed=12, mode=MODE_FIT_PER_SCENE)
        fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape) * 0.3
        qs = random_queryset(rng, SMALL)
        z_grid = fp.params["grid.z"]
        weights = (1.0, 0.5, 0.1)
        got = loss(fp, z_grid, qs, weights=weights)

        # independent scalar re-implementation
        cfg = SMALL
        p = fp.params

        def head_scalar(name, x):
            def mat(v, w, b):
                out = []
                for j in range(w.shape[1]):
                    acc = b[j]
                    for i in range(w.shape[0]):
                        acc += v[i] * w[i, j]
                    out.append(acc)
                return out

            def lk(v):
                return [vi if vi > 0 else cfg.leaky_slope * vi for vi in v]

            h1 = lk(mat(x, p[f"head.{name}.w1"], p[f"head.{name}.b1"]))
            h2 = lk(mat(h1, p[f"head.{name}.w2"], p[f"head.{name}.b2"]))
            return mat(h2, p[f"head.{name}.w3"], p[f"head.{name}.b3"])

        def input_scalar(pos, t):
            u = min(max((pos[0] - cfg.x_range[0]) / cfg.cell - 0.5, 0.0), cfg.grid_w - 1.0)
            v = min(max((pos[1] - cfg.y_range[0]) / cfg.cell - 0.5, 0.0), cfg.grid_h - 1.0)
            i0 = min(int(math.floor(u)), cfg.grid_w - 2)
            j0 = min(int(math.floor(v)), cfg.grid_h - 2)
            fx, fy = u - i0, v - j0
            feat = [
                (1 - fy) * (1 - fx) * z_grid[j0, i0, c]
                + (1 - fy) * fx * z_grid[j0, i0 + 1, c]
                + fy * (1 - fx) * z_grid[j0 + 1, i0, c]
                + fy * fx * z_grid[j0 + 1, i0 + 1, c]
                for c in range(cfg.channels)
            ]
            uz = (pos[2] - cfg.z_range[0]) / (cfg.z_range[1] - cfg.z_range[0])
            ut = t / cfg.t_max
            for k in range(cfg.n_freqs):
                w = 2 * math.pi * 2**k
                feat += [math.sin(w * uz), math.cos(w * uz), math.sin(w * ut), math.cos(w * ut)]
            return feat

        def bce(logit, y):
            return max(logit, 0.0) - logit * y + math.log1p(math.exp(-abs(logit)))

        occ_terms, feat_terms, ego_terms = [], [], []
        fi = 0
        for i in range(qs.n):
            x = input_scalar(qs.positions[i], qs.times[i])
            tag = int(qs.tags[i])
            if tag in (0, 1, 2):
                occ_terms.append(bce(head_scalar("occ", x)[0], float(qs.labels[i])))
            elif tag == 3:
                pred = head_scalar("feat", x)
                target = qs.feats[fi]
                fi += 1
                feat_terms.append(sum(abs(a - b) for a, b in zip(pred, target)) / cfg.d_feat)
            else:
                ego_terms.append(bce(head_scalar("ego", x)[0], float(qs.labels[i])))
        expected = (
            weights[0] * sum(occ_terms) / len(occ_terms)
            + weights[1] * sum(feat_terms) / len(feat_terms)
            + weights[2] * sum(ego_terms) / len(ego_terms)
        )
        assert got.total == pytest.approx(expected, abs=1e-12)


class TestGradients:
    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
    def test_finite_differences_all_groups(self, mode):
        rng = np.random.default_rng(13)
        for instance in range(4):
            fp = init_params(SMALL, seed=100 + instance, mode=mode)
            if mode == MODE_FIT_PER_SCENE:
                fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape) * 0.2
                enc = None
            else:
                enc = random_enc_input(rng, SMALL)
            qs = random_queryset(rng, SMALL)
            if instance == 3:  # the queries read only the cells of the grid's two left columns
                qs.positions[:, 0] = rng.uniform(SMALL.x_range[0], SMALL.x_range[0] + 1.5 * SMALL.cell, qs.n)
            batch = Batch.from_queryset(qs)
            terms, grads = loss_and_grads(fp, batch, enc_input=enc)
            h = 1e-5
            for name, arr in fp.params.items():
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                picks = rng.integers(0, flat.size, size=min(6, flat.size))
                for j in picks:
                    old = flat[j]
                    flat[j] = old + h
                    up = forward_loss(fp, batch, enc)
                    flat[j] = old - h
                    dn = forward_loss(fp, batch, enc)
                    flat[j] = old
                    fd = (up - dn) / (2 * h)
                    denom = max(abs(fd), abs(gflat[j]), 1e-6)
                    assert abs(fd - gflat[j]) / denom < 1e-4, f"{name}[{j}] fd={fd} got={gflat[j]}"

    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 3), (3, 1)], ids=["1x1", "1x3", "3x1"])
    def test_one_cell_wide_grid_gradcheck(self, mode, h, w):
        # along an axis one cell wide both interpolation corners are that
        # cell; every grid entry and some head weights match central
        # differences of the loss
        cfg = replace(SMALL, x_range=(-1.0, w - 1.0), y_range=(0.0, float(h)))
        assert (cfg.grid_h, cfg.grid_w) == (h, w)
        rng = np.random.default_rng(30)
        fp = init_params(cfg, seed=31, mode=mode)
        enc = random_enc_input(rng, cfg) if mode == MODE_AMORTIZED else None
        if mode == MODE_FIT_PER_SCENE:
            fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape)
        batch = Batch.from_queryset(random_queryset(rng, cfg))
        _, grads = loss_and_grads(fp, batch, enc_input=enc)
        names = ["grid.z" if mode == MODE_FIT_PER_SCENE else "enc.embed.w", "head.occ.w1", "head.feat.w1", "head.ego.w1"]
        h_step = 1e-5
        for name in names:
            flat, gflat = fp.params[name].reshape(-1), grads[name].reshape(-1)
            picks = np.arange(flat.size) if name == "grid.z" else rng.integers(0, flat.size, size=6)
            for j in picks:
                old = flat[j]
                flat[j] = old + h_step
                up = forward_loss(fp, batch, enc)
                flat[j] = old - h_step
                dn = forward_loss(fp, batch, enc)
                flat[j] = old
                fd = (up - dn) / (2 * h_step)
                assert abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-6) < 1e-4, f"{name}[{j}] fd={fd} got={gflat[j]}"

    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(14)
        fp = init_params(SMALL, seed=15, mode=MODE_FIT_PER_SCENE)
        qs = random_queryset(rng, SMALL)
        _, grads = loss_and_grads(fp, Batch.from_queryset(qs), weights=(0.0, 0.0, 0.0))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert not any(np.signbit(g).any() for g in grads.values())

    def test_negative_zero_gradient_reads_plus_zero(self, monkeypatch):
        # a gradient is a sum from +0.0, so a -0.0 from a head's or the
        # encoder's backward pass reads +0.0 (numpy's own sums and GEMMs
        # give +0.0 already; this pins the behaviour for any that do not)
        def negated_zeros(fn):
            def wrapped(*args):
                out = fn(*args)
                grads = out[0] if isinstance(out, tuple) else out
                for g in grads.values():
                    g[g == 0.0] = -0.0
                return out

            return wrapped

        monkeypatch.setattr(field, "head_backward", negated_zeros(field.head_backward))
        monkeypatch.setattr(field, "encode_backward", negated_zeros(field.encode_backward))
        rng = np.random.default_rng(20)
        fp = init_params(SMALL, seed=21, mode=MODE_AMORTIZED)
        batch = Batch.from_queryset(random_queryset(rng, SMALL))
        _, grads = loss_and_grads(fp, batch, enc_input=random_enc_input(rng, SMALL), weights=(0.0, 0.0, 0.0))
        for k, g in grads.items():
            assert np.array_equal(g.view(np.uint64), np.zeros_like(g).view(np.uint64)), k

    def test_every_parameter_has_a_gradient(self):
        # a head with no rows in the batch gets all-zero entries, in
        # parameter order
        rng = np.random.default_rng(18)
        fp = init_params(SMALL, seed=19, mode=MODE_AMORTIZED)
        batch = Batch.from_queryset(random_queryset(rng, SMALL, n_ego=0))
        _, grads = loss_and_grads(fp, batch, enc_input=random_enc_input(rng, SMALL))
        assert list(grads) == list(fp.params)
        for k, g in grads.items():
            assert g.shape == fp.params[k].shape and g.dtype == np.float64
            if k.startswith("head.ego."):
                assert np.array_equal(g.view(np.uint64), np.zeros_like(g).view(np.uint64)), k
            else:
                assert np.any(g != 0.0), k

    def test_global_average_mode_gradcheck(self):
        rng = np.random.default_rng(16)
        fp = init_params(SMALL, seed=17, mode=MODE_FIT_PER_SCENE)
        qs = random_queryset(rng, SMALL)
        batch = Batch.from_queryset(qs)
        _, grads = loss_and_grads(fp, batch, per_term_average=False)
        h = 1e-5
        arr = fp.params["head.occ.w1"]
        flat = arr.reshape(-1)
        g = grads["head.occ.w1"].reshape(-1)
        for j in rng.integers(0, flat.size, size=5):
            old = flat[j]
            flat[j] = old + h
            up = forward_loss(fp, batch, per_term=False)
            flat[j] = old - h
            dn = forward_loss(fp, batch, per_term=False)
            flat[j] = old
            fd = (up - dn) / (2 * h)
            assert abs(fd - g[j]) / max(abs(fd), 1e-6) < 1e-4


    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
    @pytest.mark.parametrize("per_term", [True, False])
    @pytest.mark.parametrize("n_ego", [10, 0])
    def test_loss_agrees_with_loss_and_grads(self, mode, per_term, n_ego):
        # loss and loss_and_grads share one forward pass: the same LossTerms,
        # bit for bit, also for a batch with no ego rows
        rng = np.random.default_rng(13)
        fp = init_params(SMALL, seed=14, mode=mode)
        enc = random_enc_input(rng, SMALL) if mode == MODE_AMORTIZED else None
        if enc is None:
            fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape) * 0.3
        qs = random_queryset(rng, SMALL, n_ego=n_ego)
        batch = Batch.from_queryset(qs, rng.integers(0, qs.n, 40))
        assert (len(batch.rows["ego"]) > 0) == (n_ego > 0)
        z = fp.params["grid.z"] if enc is None else encode(fp, enc)
        kw = dict(weights=(1.0, 0.5, 0.1), per_term_average=per_term)
        want = loss(fp, z, batch, **kw)
        got = loss_and_grads(fp, batch, enc_input=enc, **kw)[0]
        assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]


class TestModeEquivalence:
    def test_amortized_grid_equals_injected_fit_grid(self):
        rng = np.random.default_rng(18)
        am = init_params(SMALL, seed=19, mode=MODE_AMORTIZED)
        enc = random_enc_input(rng, SMALL)
        z = encode(am, enc)
        fit = init_params(SMALL, seed=19, mode=MODE_FIT_PER_SCENE)
        # share the decoders, seed the grid with the encoder output
        for k, v in am.params.items():
            if k.startswith("head."):
                fit.params[k] = v.copy()
        fit.params["grid.z"] = z.copy()
        qs = random_queryset(rng, SMALL)
        la = loss(am, z, qs)
        lf = loss(fit, fit.params["grid.z"], qs)
        assert abs(la.total - lf.total) < 1e-12
        assert la.occ == lf.occ and la.feat == lf.feat and la.ego == lf.ego


class TestSigmoid:
    def test_matches_definition(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)


def select_inputs(dtype):
    """±0, ±inf, NaNs of both signs, subnormals, the extremes, logits that
    saturate the sigmoid in ``dtype`` and a random-sign 72 x 72 x 32 array."""
    fi = np.finfo(dtype)
    sat = 90.0 if dtype == np.float32 else 750.0
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, fi.smallest_subnormal, -fi.smallest_subnormal, fi.tiny, -fi.tiny]
        + [sat, -sat, fi.max, -fi.max, 1.0, -1.0],
        dtype,
    )
    rand = np.random.default_rng(34).normal(size=(72, 72, 32)) * 10.0 ** np.random.default_rng(35).integers(-3, 3, (72, 72, 32))
    return special, rand.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_selects_same_bits_as_masked_forms(dtype):
    for x in select_inputs(dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(sigmoid(x), sigmoid_masked(x))
        for slope in (0.0, 0.1, 1.0):
            assert same_bits(_leaky_grad(x, slope), leaky_grad_where(x, slope)), slope


def test_leaky_slope_outside_unit_interval_rejected():
    for slope in (-0.1, 1.5):
        with pytest.raises(ValueError):
            FieldConfig(leaky_slope=slope)
    FieldConfig(leaky_slope=0.0)
    FieldConfig(leaky_slope=1.0)


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.5, 1.0])
def test_leaky_same_bits_as_where(slope):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e308, -1e308, -np.inf]
    if slope > 0:
        special.append(np.inf)  # 0 * inf is nan, so slope 0 maps +inf to nan
    x = np.concatenate([rng.normal(size=4096) * 10.0 ** rng.integers(-300, 300, 4096), special])
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.where(x > 0, x, slope * x)
        got = _leaky(x, slope)
        np.maximum(x, slope * x, out=x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(x.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
def test_query_head_and_query_field_equal_head_block(mode):
    fp, z_grid = field_and_grid(mode, seed=6)
    rng = np.random.default_rng(6)
    positions = rng.uniform([-17.0, -17.0, -0.4], [17.0, 17.0, 3.0], size=(3001, 3))
    times = rng.uniform(0.0, 3.0, size=3001)
    x = head_input(z_grid, positions, times, fp.config)
    want = {name: head_block(fp.params, name, x, fp.config.leaky_slope) for name in ("occ", "feat", "ego")}
    for name in want:
        assert np.array_equal(query_head(fp, z_grid, name, positions, times), want[name])


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
def test_head_block_matches_unsplit_form(mode):
    # float64: the split first layer sums x[:, :C] @ W1[:C] and
    # (x[:, C:] @ W1[C:] + b1) where the unsplit one sums x @ W1 + b1; the
    # two orders agree to 1e-12 of each output's largest entry
    fp, z_grid = field_and_grid(mode, seed=6)
    rng = np.random.default_rng(6)
    positions = rng.uniform([-17.0, -17.0, -0.4], [17.0, 17.0, 3.0], size=(3001, 3))
    x = head_input(z_grid, positions, rng.uniform(0.0, 3.0, size=3001), fp.config)
    for name in ("occ", "feat", "ego"):
        split = head_block(fp.params, name, x, fp.config.leaky_slope)
        unsplit = head_block_unsplit(fp.params, name, x, fp.config.leaky_slope)
        assert split.dtype == unsplit.dtype == np.float64
        assert np.abs(split - unsplit).max() <= 1e-12 * np.abs(unsplit).max()
        assert not np.array_equal(split, unsplit)  # the orders do differ


def field_and_grid(mode, seed=3):
    cfg = FieldConfig()
    rng = np.random.default_rng(seed)
    fp = init_params(cfg, seed, mode)
    if mode == MODE_AMORTIZED:
        pts = rng.uniform([-18, -18, -0.4], [18, 18, 3.0], size=(3000, 3))
        return fp, encode(fp, EncoderInput([pts, pts[:1000], pts[:2000]], [-1.0, -0.5, 0.0]))
    fp.params["grid.z"][:] = rng.normal(size=fp.params["grid.z"].shape)
    return fp, fp.params["grid.z"]


LATTICES = {
    "default": EvalGrid(),
    "7x5x3": EvalGrid(x=(-1.4, 0.0), y=(-1.0, 0.0), z=(0.0, 0.6), step=0.2),
    "single-layer": EvalGrid(x=(-3.0, 5.0), y=(-1.0, 1.4), z=(0.0, 0.2), step=0.2),
    "non-square": EvalGrid(x=(-6.0, 4.0), y=(-2.0, 1.2), z=(-0.4, 0.4), step=0.4),
    "61x47x5": EvalGrid(x=(-6.2, 6.0), y=(-4.6, 4.8), z=(-0.4, 0.6), step=0.2),
    # 1 x 1 x 7: the column term is a single row
    "one-column": EvalGrid(x=(0.4, 0.6), y=(-1.2, -1.0), z=(-0.4, 1.0), step=0.2),
}


def whole_lattice_query_head(fp, z_grid, name, centers, t):
    """One query_head call on every probe of a z-major lattice."""
    return query_head(fp, z_grid, name, centers, np.full(len(centers), t))


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_lattice_head_equals_chunked_query_head(mode, lattice):
    grid = LATTICES[lattice]
    fp, z_grid = field_and_grid(mode)
    nz, ny, nx = grid.shape
    centers = grid.centers()
    xy, zs = centers[: ny * nx, :2], centers[:: ny * nx, 2]
    assert len(zs) == nz
    for name in ("occ", "ego"):
        got = lattice_head(fp, z_grid, name, xy, zs, 1.8)
        assert np.array_equal(got, whole_lattice_query_head(fp, z_grid, name, centers, 1.8))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
@pytest.mark.parametrize("lattice", ["7x5x3", "single-layer", "one-column"])
def test_lattice_head_over_times_equals_query_head(dtype, mode, lattice):
    """Several times in one call share the column term: row (j * nz + k) *
    n_columns + i is column i at height k at times[j], with query_head's bits."""
    grid, times = LATTICES[lattice], (0.0, 0.6, 1.8, 3.0)
    fp, z_grid = field_and_grid(mode) if dtype == np.float64 else float32_field_and_grid(mode)
    _, ny, nx = grid.shape
    centers = grid.centers()
    for name in ("occ", "feat", "ego"):
        got = lattice_head(fp, z_grid, name, centers[: ny * nx, :2], centers[:: ny * nx, 2], times)
        want = np.concatenate([whole_lattice_query_head(fp, z_grid, name, centers, t) for t in times])
        assert got.dtype == np.float64 and want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.array_equal(got[-len(centers) :], lattice_head(fp, z_grid, name, centers[: ny * nx, :2], centers[:: ny * nx, 2], 3.0))


@pytest.mark.parametrize("tile", [1, 13, 35, 36])
def test_lattice_head_chunks_across_layers(tile, monkeypatch):
    """Tiles of 1 row, and tiles that end inside, exactly at and just past
    the 35-column layers of the 7x5x3 lattice."""
    monkeypatch.setattr(field, "_TILE", tile)
    grid = LATTICES["7x5x3"]
    fp, z_grid = field_and_grid(MODE_FIT_PER_SCENE, seed=4)
    centers = grid.centers()
    got = lattice_head(fp, z_grid, "feat", centers[:35, :2], centers[::35, 2], 0.6)
    assert np.array_equal(got, whole_lattice_query_head(fp, z_grid, "feat", centers, 0.6))


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
def test_lattice_head_tiles_match_whole_blocks(mode, monkeypatch):
    """At each tile size the lattice spans several tiles and ends in a
    partial tile whose length is no multiple of 8."""
    grid = LATTICES["61x47x5"]
    assert grid.shape == (5, 47, 61)
    fp, z_grid = field_and_grid(mode, seed=5)
    centers = grid.centers()
    want = {name: whole_lattice_query_head(fp, z_grid, name, centers, 2.4) for name in ("occ", "ego", "feat")}
    for tile in (16, 256, 512, 2048):
        monkeypatch.setattr(field, "_TILE", tile)
        assert len(centers) > field._TILE and len(centers) % field._TILE % 8
        for name in want:
            got = lattice_head(fp, z_grid, name, centers[: 47 * 61, :2], centers[:: 47 * 61, 2], 2.4)
            assert np.array_equal(got, want[name])


def test_lattice_head_same_bits_at_one_and_two_blas_threads():
    from occ4d.cli import _blas_thread_calls

    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
    fp, z_grid = field_and_grid(MODE_FIT_PER_SCENE, seed=7)
    before, got = calls[0](), []
    try:
        for threads in (1, 2):
            calls[1](threads)
            got.append([])
            for lattice in ("default", "61x47x5"):
                _, ny, nx = LATTICES[lattice].shape
                centers = LATTICES[lattice].centers()
                for name in ("occ", "ego", "feat"):
                    got[-1].append(lattice_head(fp, z_grid, name, centers[: ny * nx, :2], centers[:: ny * nx, 2], 1.2))
    finally:
        calls[1](before)
    assert all(np.array_equal(a, b) for a, b in zip(*got))


def test_scores_do_not_depend_on_the_batch(monkeypatch):
    """At 1 and 2 BLAS threads, a probe's head output has the bits of one
    query_head call on all 5,000 probes at 1 thread, whether it is scored in
    a shuffled batch of 1-700 probes, alone through head_forward (with and
    without a cache) or by lattice_head at any tile size."""
    from occ4d.cli import _blas_thread_calls

    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
    fp, z_grid = field_and_grid(MODE_AMORTIZED, seed=8)
    rng = np.random.default_rng(8)
    positions = rng.uniform([-17.0, -17.0, -0.4], [17.0, 17.0, 3.0], size=(5000, 3))
    times = rng.uniform(0.0, 3.0, size=5000)
    x = head_input(z_grid, positions, times, fp.config)
    centers = LATTICES["7x5x3"].centers()
    before = calls[0]()
    try:
        calls[1](1)
        want = {name: query_head(fp, z_grid, name, positions, times) for name in ("occ", "ego", "feat")}
        for threads in (1, 2):
            calls[1](threads)
            for name, whole in want.items():
                got = np.empty_like(whole)
                order = rng.permutation(len(positions))
                cuts = np.cumsum(rng.integers(1, 701, size=len(positions)))
                for rows in np.split(order, cuts[cuts < len(order)]):
                    got[rows] = query_head(fp, z_grid, name, positions[rows], times[rows])
                assert np.array_equal(got, whole), (threads, name)

                batch, batch_cache = field.head_forward(fp, name, x[:700], want_cache=True)
                for i in rng.choice(700, size=5, replace=False):
                    one, one_cache = field.head_forward(fp, name, x[i : i + 1], want_cache=True)
                    assert np.array_equal(field.head_forward(fp, name, x[i : i + 1]), whole[i : i + 1])
                    assert np.array_equal(one, batch[i : i + 1]) and np.array_equal(one, whole[i : i + 1])
                    assert all(np.array_equal(a, b[i : i + 1]) for a, b in zip(one_cache, batch_cache))

                lattice = whole_lattice_query_head(fp, z_grid, name, centers, 0.6)
                for tile in (1, 13, 35, 36):
                    monkeypatch.setattr(field, "_TILE", tile)
                    got = lattice_head(fp, z_grid, name, centers[:35, :2], centers[::35, 2], 0.6)
                    assert np.array_equal(got, lattice), (threads, name, tile)
    finally:
        calls[1](before)


# float32 grids, as eval scores them: the heads run in the grid's dtype from
# the float64 params, and lattice_head returns the float32 outputs as float64


def float32_field_and_grid(mode, seed=3):
    """field_and_grid's params with its grid in float32: the amortized grid
    encoded by the params in float32, the fit-per-scene grid cast."""
    fp, z_grid = field_and_grid(mode, seed)
    if mode == MODE_AMORTIZED:
        pts = np.random.default_rng(seed).uniform([-18, -18, -0.4], [18, 18, 3.0], size=(3000, 3))
        z32 = encode(fp.astype(np.float32), EncoderInput([pts, pts[:1000], pts[:2000]], [-1.0, -0.5, 0.0]))
    else:
        z32 = z_grid.astype(np.float32)
    assert z32.dtype == np.float32 and np.abs(z32 - z_grid).max() < 1e-4
    return fp, z32


def test_float32_grid_scores_in_float32():
    fp, z32 = float32_field_and_grid(MODE_FIT_PER_SCENE)
    centers = LATTICES["7x5x3"].centers()
    whole = whole_lattice_query_head(fp, z32, "occ", centers, 0.6)
    got = lattice_head(fp, z32, "occ", centers[:35, :2], centers[::35, 2], 0.6)
    assert whole.dtype == np.float32 and got.dtype == np.float64
    assert np.array_equal(got, whole)
    x = head_input(z32, centers, np.full(len(centers), 0.6), fp.config)
    assert x.dtype == np.float32
    assert np.array_equal(whole, field.head_forward(fp.astype(np.float32), "occ", x))
    assert not np.array_equal(whole, whole_lattice_query_head(fp, z32.astype(np.float64), "occ", centers, 0.6))


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_lattice_head_equals_chunked_query_head_float32(mode, lattice):
    grid = LATTICES[lattice]
    fp, z32 = float32_field_and_grid(mode)
    _, ny, nx = grid.shape
    centers = grid.centers()
    for name in ("occ", "ego"):
        got = lattice_head(fp, z32, name, centers[: ny * nx, :2], centers[:: ny * nx, 2], 1.8)
        assert np.array_equal(got, whole_lattice_query_head(fp, z32, name, centers, 1.8))


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
def test_lattice_head_tiles_match_whole_blocks_float32(mode, monkeypatch):
    grid = LATTICES["61x47x5"]
    fp, z32 = float32_field_and_grid(mode, seed=5)
    centers = grid.centers()
    want = {name: whole_lattice_query_head(fp, z32, name, centers, 2.4) for name in ("occ", "ego", "feat")}
    for tile in (16, 256, 512, 1024, 2048):
        monkeypatch.setattr(field, "_TILE", tile)
        assert len(centers) > field._TILE and len(centers) % field._TILE % 8
        for name in want:
            got = lattice_head(fp, z32, name, centers[: 47 * 61, :2], centers[:: 47 * 61, 2], 2.4)
            assert np.array_equal(got, want[name]), (tile, name)


def test_lattice_head_same_bits_at_one_and_two_blas_threads_float32():
    from occ4d.cli import _blas_thread_calls

    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
    fp, z32 = float32_field_and_grid(MODE_FIT_PER_SCENE, seed=7)
    before, got = calls[0](), []
    try:
        for threads in (1, 2):
            calls[1](threads)
            got.append([])
            for lattice in ("default", "61x47x5"):
                _, ny, nx = LATTICES[lattice].shape
                centers = LATTICES[lattice].centers()
                for name in ("occ", "ego", "feat"):
                    got[-1].append(lattice_head(fp, z32, name, centers[: ny * nx, :2], centers[:: ny * nx, 2], 1.2))
    finally:
        calls[1](before)
    assert all(np.array_equal(a, b) for a, b in zip(*got))


def test_scores_do_not_depend_on_the_batch_float32():
    """At 1 and 2 BLAS threads, a probe's float32 head output has the bits
    of one query_head call on all 5,000 probes at 1 thread, whether it is
    scored in a shuffled batch of 1-700 probes or alone."""
    from occ4d.cli import _blas_thread_calls

    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count symbols are not available")
    fp, z32 = float32_field_and_grid(MODE_AMORTIZED, seed=8)
    rng = np.random.default_rng(8)
    positions = rng.uniform([-17.0, -17.0, -0.4], [17.0, 17.0, 3.0], size=(5000, 3))
    times = rng.uniform(0.0, 3.0, size=5000)
    before = calls[0]()
    try:
        calls[1](1)
        want = {name: query_head(fp, z32, name, positions, times) for name in ("occ", "ego", "feat")}
        for threads in (1, 2):
            calls[1](threads)
            for name, whole in want.items():
                got = np.empty_like(whole)
                order = rng.permutation(len(positions))
                cuts = np.cumsum(rng.integers(1, 701, size=len(positions)))
                for rows in np.split(order, cuts[cuts < len(order)]):
                    got[rows] = query_head(fp, z32, name, positions[rows], times[rows])
                assert np.array_equal(got, whole), (threads, name)
                for i in rng.choice(len(positions), size=5, replace=False):
                    assert np.array_equal(query_head(fp, z32, name, positions[i], times[i : i + 1]), whole[i : i + 1])
    finally:
        calls[1](before)


@pytest.mark.parametrize(
    "cfg",
    [SMALL, FieldConfig(x_range=(-4.0, 4.0), y_range=(-2.0, 3.0), cell=0.5, channels=5)],
    ids=["square", "non-square"],
)
def test_interp_backward_same_bits_as_add_at(cfg):
    # positions at the region edges, on cell centers (integer grid
    # coordinates), on cell faces and in the clamped outer half-cell ring,
    # drawn with repeats so that many queries add into the same entries; the
    # scatter into the rows of the cells read, placed into a zero grid, has
    # the same bits as the scatter into the grid
    rng = np.random.default_rng(6)
    h, w, c = cfg.grid_h, cfg.grid_w, cfg.channels

    def axis(lo, cells):
        special = lo + cfg.cell * np.concatenate(
            [[0.0, cells, 0.25, cells - 0.25], np.arange(cells) + 0.5, np.arange(cells + 1)]
        )
        return np.concatenate([special, rng.uniform(lo, lo + cells * cfg.cell, 40)])

    xs, ys = axis(cfg.x_range[0], w), axis(cfg.y_range[0], h)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        corners, weights = field._interp_setup(rng.choice(xs, n), rng.choice(ys, n), cfg, np.float64)
        dfeat = rng.normal(size=(n, c))
        dfeat[rng.uniform(size=dfeat.shape) < 0.2] = -0.0
        dfeat[rng.uniform(size=dfeat.shape) < 0.1] = 0.0
        want = interp_backward_add_at(corners, weights, dfeat, h * w)
        assert same_bits(interp_backward(corners, weights, dfeat, h * w), want)
        cells, at = np.unique(corners, return_inverse=True)
        placed = np.zeros((h * w, c))
        placed[cells] = interp_backward(at.reshape(corners.shape), weights, dfeat, len(cells))
        assert same_bits(placed, want)


@pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
def test_float32_step_stays_float32(mode, monkeypatch):
    # a float32 step must not promote to float64 anywhere: every gradient and
    # every conv output (windows, rows and scattered dx) is float32, and the
    # gradients agree with the float64 step's to 1e-5 of each tensor's norm
    # (measured: under 4e-7)
    rng = np.random.default_rng(31)
    fp64 = init_params(SMALL, seed=32, mode=mode)
    enc = random_enc_input(rng, SMALL) if mode == MODE_AMORTIZED else None
    if enc is None:
        fp64.params["grid.z"][:] = rng.normal(size=fp64.params["grid.z"].shape) * 0.3
    batch = Batch.from_queryset(random_queryset(rng, SMALL, n_occ=200, n_feat=40, n_ego=40))
    terms64, grads64 = loss_and_grads(fp64, batch, enc_input=enc)
    conv_outputs = []

    def recorded(fn):
        def wrapped(*args):
            out = fn(*args)
            conv_outputs.extend(out if isinstance(out, tuple) else [out])
            return out

        return wrapped

    monkeypatch.setattr(field, "_conv_at", recorded(field._conv_at))
    monkeypatch.setattr(field, "_conv_dx", recorded(field._conv_dx))
    terms32, grads32 = loss_and_grads(fp64.astype(np.float32), batch, enc_input=enc)
    assert list(grads32) == list(grads64)
    for k, g in grads32.items():
        assert g.dtype == np.float32, k
        want = grads64[k]
        assert np.linalg.norm(g - want) <= 1e-5 * np.linalg.norm(want), k
    assert all(a.dtype == np.float32 for a in conv_outputs)
    assert len(conv_outputs) == (5 if mode == MODE_AMORTIZED else 0)
    assert terms32.total == pytest.approx(terms64.total, rel=1e-5)


def test_init_weights_survive_a_float32_round_trip():
    for mode in (MODE_FIT_PER_SCENE, MODE_AMORTIZED):
        fp = init_params(SMALL, seed=33, mode=mode)
        for k, v in fp.params.items():
            back = v.astype(np.float32).astype(np.float64)
            assert v.dtype == np.float64 and np.array_equal(back.view(np.uint64), v.view(np.uint64)), k
