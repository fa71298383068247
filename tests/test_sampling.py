import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stopsum
from stopsum import (
    BLOCK_SIZE,
    DegenerateStartError,
    ModelSpec,
    PathOverflowError,
    init_model,
    run_path,
    sample_stopped_batch,
)
from stopsum import models
from stopsum.models import compute_gamma

IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
PRODUCT = ModelSpec("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.05})
REGIME = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
ALL_SPECS = (IID, PRODUCT, REGIME)


COLUMNS = ("nu", "gamma", "s_nu", "s_prime_nu", "y_nu", "v_before",
           "sigma_nu_sq")


def assert_batch_equal(a, b, rows=None):
    """Equal columns, over the first ``rows`` rows of each if given."""
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a, name)[:rows],
                                      getattr(b, name)[:rows])


class TestDeterminism:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_same_seed_same_batch(self, spec):
        a = sample_stopped_batch(spec, 64.0, 5000, 9)
        b = sample_stopped_batch(spec, 64.0, 5000, 9)
        assert_batch_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_block_prefix_property(self, spec):
        # rows of the first blocks do not depend on how many blocks, whole
        # or short, come after them
        full = sample_stopped_batch(spec, 64.0, 3 * BLOCK_SIZE + 7, 9)
        assert full.size == 3 * BLOCK_SIZE + 7
        for blocks in (1, 3):
            rows = blocks * BLOCK_SIZE
            assert_batch_equal(sample_stopped_batch(spec, 64.0, rows, 9),
                               full, rows)


class TestStoppedInvariants:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [50.0, 200.0])
    def test_equation_residual_and_minimality(self, spec, n):
        b = sample_stopped_batch(spec, n, 20_000, 5)
        resid = np.abs(b.v_before + b.gamma * b.sigma_nu_sq - n)
        assert np.max(resid) <= 1e-12 * n
        assert np.all(b.v_before < n)
        assert np.all(b.v_before + b.sigma_nu_sq >= n)
        assert np.all((b.gamma > 0) & (b.gamma <= 1.0))
        assert np.all(b.nu >= 1)
        assert np.all(b.y_nu >= 1.0)
        assert np.all(b.sigma_nu_sq <= b.y_nu**2)

    def test_iid_closed_forms(self):
        b = sample_stopped_batch(IID, 10.0, 1000, 1)
        assert np.all(b.nu == 9)
        assert np.all(b.gamma == 1.0)
        assert np.all(b.v_before == 9.0)
        assert np.all(b.y_nu == 1.0)
        # sum of nu signs has the parity of nu
        assert np.all((b.s_nu + 9) % 2 == 0)
        assert np.all(np.abs(b.s_nu) <= 9)

    def test_iid_gamma_one_extends_sum(self):
        b = sample_stopped_batch(IID, 10.0, 1000, 1)
        diff = np.abs(b.s_prime_nu - b.s_nu)
        assert np.all(diff == 1.0)  # sqrt(gamma) * X_10 with gamma = 1

    def test_iid_fractional_gamma(self):
        spec = ModelSpec("iid_bounded", {"m": 2.0, "v": 2.0})
        b = sample_stopped_batch(spec, 5.0, 100, 3)
        assert np.all(b.nu == 2)
        assert np.all(b.gamma == 0.5)
        assert np.all(b.v_before == 4.0)

    def test_regime_variances_and_y(self):
        b = sample_stopped_batch(REGIME, 64.0, 5000, 2)
        assert set(np.unique(b.sigma_nu_sq)) <= {0.25, 4.0}
        assert np.all(b.y_nu == 2.0)

    def test_product_y_in_range(self):
        b = sample_stopped_batch(PRODUCT, 64.0, 5000, 2)
        assert np.all((b.y_nu >= 1.0) & (b.y_nu <= 2.0))
        assert np.all(b.sigma_nu_sq == b.y_nu**2)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_batch_carries_its_threshold(self, spec):
        # n as a float, whatever number type it is given as, and the same
        # paths for each
        want = sample_stopped_batch(spec, 64.0, 100, 3)
        for n in (64, np.int64(64), 64.0):
            b = sample_stopped_batch(spec, n, 100, 3)
            assert type(b.n) is float and b.n == 64.0
            assert_batch_equal(b, want)

    def test_rejects_degenerate_threshold(self):
        spec = ModelSpec("iid_bounded", {"m": 2.0, "v": 4.0})
        with pytest.raises(DegenerateStartError):
            sample_stopped_batch(spec, 6.0, 100, 0)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            sample_stopped_batch(IID, 64.0, 0, 0)


class TestScalarAgreement:
    """The batch sampler and the scalar engine draw different stream layouts
    but must agree in distribution."""

    @pytest.mark.parametrize("spec", (PRODUCT, REGIME), ids=lambda s: s.kind)
    def test_moments_match(self, spec):
        n = 64.0
        batch = sample_stopped_batch(spec, n, 40_000, 11)
        scalar = [run_path(init_model(spec, 10_000 + i), n) for i in range(2000)]
        s_nu = np.array([s.s_nu for s in scalar])
        nu = np.array([s.nu for s in scalar])
        for bvals, svals in ((batch.s_nu, s_nu), (batch.nu.astype(float), nu)):
            bm, sm = np.mean(bvals), np.mean(svals)
            se = math.hypot(np.std(bvals) / math.sqrt(bvals.size),
                            np.std(svals) / math.sqrt(svals.size))
            assert abs(bm - sm) <= 6.0 * se + 1e-12

    def test_iid_matches_scalar_closed_form(self):
        batch = sample_stopped_batch(IID, 10.0, 100, 0)
        scalar = run_path(init_model(IID, 0), 10.0)
        assert scalar.nu == batch.nu[0]
        assert scalar.gamma == batch.gamma[0]


def reference_product(law, n, size, rng, cap):
    """The product block sampler as one dense (sz, cap) matrix per 512-row
    chunk: the reference the tiled sampler must match bit for bit."""
    q = law.p_growth
    chunks = []
    for start in range(0, size, 512):
        sz = min(512, size - start)
        grow = rng.random((sz, cap)) < q
        counts = np.cumsum(grow, axis=1, dtype=np.int32)
        a = np.empty((sz, cap))
        a[:, 0] = law.a_lo
        a[:, 1:] = law.amplitude(counts[:, :-1])
        zeta = 2.0 * rng.integers(0, 2, size=(sz, cap)) - 1.0
        sigma_sq = a * a
        csum = np.cumsum(sigma_sq, axis=1)
        if not np.all(csum[:, -1] >= n):
            raise PathOverflowError("reference product")
        nu = np.argmax(csum >= n, axis=1)
        rows = np.arange(sz)
        v_before = csum[rows, nu - 1]
        sig_nu = sigma_sq[rows, nu]
        gamma = compute_gamma(v_before, sig_nu, n)
        x = a * zeta
        mask = np.arange(cap)[None, :] < nu[:, None]
        s_nu = np.sum(x * mask, axis=1)
        chunks.append({
            "nu": nu.astype(np.int64),
            "gamma": gamma,
            "s_nu": s_nu,
            "s_prime_nu": s_nu + np.sqrt(gamma) * x[rows, nu],
            "y_nu": a[rows, nu],
            "v_before": v_before,
            "sigma_nu_sq": sig_nu,
        })
    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def reference_regime(law, n, size, rng, cap):
    """The regime block sampler with one sign draw per step and scattered
    updates: the reference the buffered sampler must match bit for bit."""
    out = {
        "nu": np.zeros(size, dtype=np.int64),
        "s_nu": np.zeros(size),
        "y_nu": np.full(size, law.ys[0]),
        "v_before": np.zeros(size),
        "sigma_nu_sq": np.zeros(size),
    }
    x_nu = np.zeros(size)
    s = np.zeros(size)
    v = np.zeros(size)
    active = np.arange(size)
    for k in range(cap):
        sigma_sq = np.where(s[active] > 0, law.variances[1], law.variances[0])
        x = np.sqrt(sigma_sq) * (2.0 * rng.integers(0, 2, size=active.size) - 1.0)
        v_new = v[active] + sigma_sq
        stop = v_new >= n if k >= 1 else np.zeros(active.size, dtype=bool)
        if stop.any():
            idx = active[stop]
            out["nu"][idx] = k
            out["s_nu"][idx] = s[idx]
            out["v_before"][idx] = v[idx]
            out["sigma_nu_sq"][idx] = sigma_sq[stop]
            x_nu[idx] = x[stop]
        cont = ~stop
        keep = active[cont]
        s[keep] += x[cont]
        v[keep] = v_new[cont]
        active = keep
        if active.size == 0:
            out["gamma"] = compute_gamma(out["v_before"], out["sigma_nu_sq"], n)
            out["s_prime_nu"] = out["s_nu"] + np.sqrt(out["gamma"]) * x_nu
            return out
    raise PathOverflowError("reference regime")


REFERENCES = {"product": reference_product, "regime_switch": reference_regime}


def assert_columns_identical(got, want):
    for name in COLUMNS:
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), name


def block_rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))


# (kind, params, n, block sizes).  Product caps of 66 and 302 sit below one
# 256-column tile and end in a partial one; at n = 1500 a later chunk stops
# a tile earlier than an earlier one, so a stale buffer tail would show; 4097
# regime rows, more than a block holds, need a refill of 4098 signs.
ORACLE_CASES = [
    ("product", {}, 1024.0, (4096,)),
    ("product", {}, 2048.0, (4096,)),
    ("product", {}, 1500.0, (4096, 1000)),
    ("product", {}, 64.0, (4096, 1000, 7)),
    ("product", {"a_lo": 1.1, "a_hi": 1.3, "p_growth": 0.5}, 333.3, (4096, 1000, 7)),
    ("product", {"p_growth": 0.0}, 300.0, (1000, 7)),
    ("product", {"p_growth": 0.5}, 300.0, (1000, 7)),
    ("product", {"p_growth": 1.0}, 700.0, (1000, 7)),
    ("product", {"a_lo": 1.1, "p_growth": 0.0}, 200 * 1.1 ** 2, (1000, 7)),
    # nu <= 189 against caps of 3002 and 3001, in 103-row sub-chunks of
    # width 318: whole subtrees past the last crossing sum to 0.0 at
    # several levels of the pairwise tree
    ("product", {"a_hi": 4.0, "p_growth": 1.0}, 3000.0, (4096, 1000, 7)),
    ("product", {"a_hi": 4.0, "p_growth": 1.0}, 2999.0, (1000, 7)),
    ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 512.0, (4096,)),
    ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 1024.0, (4096,)),
    ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 64.0,
     (4097, 4096, 1000, 7)),
    ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}, 100.0, (4096, 1000, 7)),
    ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}, 150 * (1 / 3), (1000, 7)),
]


class TestBitIdentity:
    """The block samplers draw the reference samplers' Philox values in the
    same order and reproduce every column bit for bit, signed zeros too."""

    @pytest.mark.parametrize(
        "kind,params,n,size",
        [(k, p, n, sz) for k, p, n, sizes in ORACLE_CASES for sz in sizes],
        ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
    def test_block_matches_reference(self, kind, params, n, size):
        spec = ModelSpec(kind, params)
        cap = spec.step_cap(n)
        got = spec.law.sample_block(n, size, block_rng(), cap)
        want = REFERENCES[kind](spec.law, n, size, block_rng(), cap)
        assert_columns_identical(got, want)

    def test_philox_int32_signs_split_freely(self):
        # the regime sampler refills 16384 signs or more at a time, the
        # int32 draws of its raw outputs, where the reference drew one
        # int64 call per step; both take one 32-bit half of a Philox output
        # per sign, and the spare half carries over between calls
        sizes = (3, 4096, 1, 77)
        whole = block_rng().integers(0, 2, size=sum(sizes), dtype=np.int32)
        rng = block_rng()
        parts = [rng.integers(0, 2, size=k) for k in sizes]
        assert np.array_equal(whole, np.concatenate(parts))


GROWTH_PROBABILITIES = [0.0, 2.0 ** -53, 0.05, 0.25, 0.5, 1 - 2.0 ** -53, 1.0]


class TestGrowthTest:
    """The product sampler sets a growth bit where a raw Philox output x
    lies below ceil(p 2^53) 2^11, which is Generator.random() < p, where
    random() = (x >> 11) 2^-53."""

    @staticmethod
    def grows(q, raw):
        out = np.empty(raw.size, dtype=bool)
        models._growth_test(q)(raw, out)
        return out

    # T 2^11 = 2^64 at q = 1, above every output, and 0 at q = 0
    @pytest.mark.parametrize("q", GROWTH_PROBABILITIES)
    def test_exact_at_the_bound(self, q):
        bound = math.ceil(q * 2.0 ** 53) << 11
        xs = [x for x in (0, bound - 1, bound, 2 ** 64 - 1) if 0 <= x < 2 ** 64]
        got = self.grows(q, np.array(xs, dtype=np.uint64))
        assert got.tolist() == [(x >> 11) * 2.0 ** -53 < q for x in xs]

    @pytest.mark.parametrize("q", GROWTH_PROBABILITIES)
    def test_fresh_stream_matches_random(self, q):
        raw = block_rng().bit_generator.random_raw(10 ** 5)
        assert np.array_equal(self.grows(q, raw), block_rng().random(10 ** 5) < q)


class TestRawPieces:
    """Raw outputs drawn 5 at a time: growth pieces split inside a row, and
    sign pieces split with a spare 32-bit half carried across pieces and
    sub-chunks; the blocks still match the references bit for bit."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(models, "_RAW_PIECE", 5)

    @pytest.mark.parametrize("kind,params,n,size", [
        ("product", {}, 64.0, 1000),
        ("product", {"a_lo": 1.1, "a_hi": 1.3, "p_growth": 0.5}, 333.3, 513),
        ("product", {"p_growth": 1.0}, 700.0, 7),
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 64.0, 4097),
        ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}, 100.0, 1000),
        ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}, 100.0, 7),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
    def test_block_matches_reference(self, kind, params, n, size):
        spec = ModelSpec(kind, params)
        cap = spec.step_cap(n)
        got = spec.law.sample_block(n, size, block_rng(), cap)
        want = REFERENCES[kind](spec.law, n, size, block_rng(), cap)
        assert_columns_identical(got, want)

    # odd caps: 67 in sub-chunks of 3 rows (201 signs each), and 4097 in
    # the two budget-bound sub-chunks of 73 rows that 146 rows split into
    @pytest.mark.parametrize("budget,n,size,rows", [(3, 65.0, 7, 3),
                                                    (3, 65.0, 513, 3),
                                                    (None, 4095.0, 146, 73)])
    def test_spare_half_across_sub_chunks(self, monkeypatch, budget, n, size,
                                          rows):
        if budget:
            TestProductSubChunks.budget_rows(monkeypatch, budget, n)
        TestProductSubChunks.assert_matches({}, n, size, rows)


def pairwise_leaves(cap, width):
    """The (c0, c1) of each tile that ``models._pairwise`` asks for over a
    row of cap columns, in the order it asks."""
    leaves = []
    models._pairwise(0, cap, width,
                     lambda c0, c1: leaves.append((c0, c1)) or 0.0)
    return leaves


class TestPairwiseNodes:
    """The product sampler sums a row along np.add.reduce's pairwise tree
    (``models._pairwise``), a column tile at each leaf; with np.add.reduce
    at the leaves it gives np.sum's bits over the dense row, signed zeros
    included."""

    CAPS = [*range(1, 2101), 4098, 16386, 262146]

    @staticmethod
    def width(cap, sampler_width):
        """1, so that every run longer than 128 splits as numpy splits it,
        or the width of the sampler's sub-chunks at this cap."""
        return models._sub_chunk(BLOCK_SIZE, cap)[1] if sampler_width else 1

    # numpy adds at most 128 values in one unrolled loop
    @pytest.mark.parametrize("sampler_width", [False, True])
    def test_leaves_cover_the_row_in_order(self, sampler_width):
        for cap in self.CAPS:
            width = self.width(cap, sampler_width)
            tiles = pairwise_leaves(cap, width)
            assert [c0 for c0, _ in tiles] == [0] + [c1 for _, c1 in tiles[:-1]]
            assert tiles[-1][1] == cap
            assert all(c1 - c0 <= max(width, 128) for c0, c1 in tiles), cap

    @pytest.mark.parametrize("sampler_width", [False, True])
    def test_pairwise_is_numpy_sum(self, sampler_width):
        rng = np.random.default_rng(11)
        for cap in self.CAPS:
            width = self.width(cap, sampler_width)
            tiles = pairwise_leaves(cap, width)
            x = rng.standard_normal((3, cap)) * np.exp(
                rng.uniform(-30.0, 30.0, (3, cap)))
            # each row's zero tail starts at a random column, signed as
            # X_{k+1} * 0.0 up to the end of the tile of the last tail
            # start and +0.0 past it; row 0 is zeros, -0.0 up to that end
            x[0] = -np.abs(x[0])
            tail = rng.integers(0, cap + 1, 3)
            tail[0] = 0
            end = next(c1 for c0, c1 in tiles if c1 > tail.max()) \
                if tail.max() < cap else cap
            for row, k in zip(x, tail):
                row[k:end] *= 0.0
                row[end:] = 0.0

            def leaf(c0, c1):
                """A tile from column ``end`` on sums to 0.0 unread."""
                return (np.add.reduce(x[:, c0:c1], axis=1) if c0 < end
                        else 0.0)

            got = models._pairwise(0, cap, width, leaf)
            want = np.add.reduce(x, axis=1)
            assert np.array_equal(got, want), cap
            assert np.array_equal(np.signbit(got), np.signbit(want)), cap


class TestProductSubChunks:
    """A product chunk is drawn and stepped a sub-chunk of rows at a time,
    uniforms from the block's stream and signs from a second cursor sz*cap
    outputs ahead; any sub-chunk size gives the reference's bits."""

    @staticmethod
    def assert_matches(params, n, size, rows):
        """The block matches the reference, in sub-chunks of ``rows``
        stepped in tiles of at most 2^15 cells or pairwise leaves of at
        most 128 columns."""
        spec = ModelSpec("product", params)
        cap = spec.step_cap(n)
        got_rows, width = models._sub_chunk(size, cap)
        assert got_rows == rows
        for c0, c1 in pairwise_leaves(cap, width):
            assert (c1 - c0 <= models._PAIRWISE_LEAF
                    or rows * (c1 - c0) <= models._PRODUCT_TILE_CELLS)
        got = spec.law.sample_block(n, size, block_rng(), cap)
        want = reference_product(spec.law, n, size, block_rng(), cap)
        assert_columns_identical(got, want)

    @staticmethod
    def budget_rows(monkeypatch, rows, n):
        """A draw budget of ``rows`` rows at threshold n."""
        cap = ModelSpec("product", {}).step_cap(n)
        monkeypatch.setattr(models, "_PRODUCT_BUDGET",
                            rows * models._PRODUCT_CELL_BYTES * cap)

    # budget 0 is below one row, which still steps one row at a time
    @pytest.mark.parametrize("budget,size", [(0, 7), (0, 513), (1, 600)])
    def test_one_row_at_a_time(self, monkeypatch, budget, size):
        self.budget_rows(monkeypatch, budget, 64.0)
        self.assert_matches({}, 64.0, size, 1)

    # a budget of 100 rows splits a chunk into sub-chunks of 86 rows:
    # 512 = 5 * 86 + 82 and 488 = 5 * 86 + 58; at n = 1500 a later
    # sub-chunk stops a tile earlier than an earlier one
    @pytest.mark.parametrize("n", [1500.0, 333.3])
    def test_sub_chunks_that_do_not_divide_the_chunk(self, monkeypatch, n):
        self.budget_rows(monkeypatch, 100, n)
        self.assert_matches({}, n, 1000, 86)

    # cap 67 and 3 rows: each sub-chunk draws 201 signs, an odd count, so
    # the spare 32-bit half carries over between sub-chunks
    @pytest.mark.parametrize("size", [7, 513])
    def test_odd_sign_counts(self, monkeypatch, size):
        self.budget_rows(monkeypatch, 3, 65.0)
        self.assert_matches({}, 65.0, size, 3)

    # 513 rows are two chunks; the second cursor of the second chunk
    # starts where the first chunk's signs ended
    @pytest.mark.parametrize("params,n", [({}, 1024.0), ({}, 65.0),
                                          ({"p_growth": 0.5}, 333.3)])
    def test_two_chunks(self, params, n):
        rows = {1024.0: 128, 65.0: 256, 333.3: 128}[n]
        self.assert_matches(params, n, 513, rows)

    # the bound that sets the rows: at cap 258 a 256-column tile of 2^15
    # cells (128 rows; the draw budget holds 1270), at cap 4098 the draw
    # budget (79 rows, so 290 rows split into 73, 73, 73 and 71), at cap 66
    # a tile of the whole row (496 rows, so a chunk splits into 256 + 256);
    # at the odd cap 4097 the budget-bound sub-chunks of 73 rows draw an
    # odd count of signs, 299081 in 19 pieces of raw outputs, so the
    # spare 32-bit half carries over to the next sub-chunk
    @pytest.mark.parametrize("n,size,rows", [(256.0, 512, 128),
                                             (4096.0, 290, 73),
                                             (64.0, 1000, 256),
                                             (4095.0, 290, 73)])
    def test_bound_that_sets_the_rows(self, n, size, rows):
        self.assert_matches({}, n, size, rows)

    # a pairwise leaf of up to 128 columns is one tile even where the
    # width is narrower: cap 66 in 512-row sub-chunks of width 64 is one
    # 66-column tile of 33792 cells, whose growth draws take five pieces
    # of raw outputs, split inside a row
    def test_leaf_wider_than_the_width(self, monkeypatch):
        monkeypatch.setattr(models, "_sub_chunk", lambda size, cap: (512, 64))
        assert pairwise_leaves(66, 64) == [(0, 66)]
        self.assert_matches({}, 64.0, 1000, 512)

    @pytest.mark.parametrize("n", [64.0, 256.0, 1024.0, 2048.0, 4096.0,
                                   16384.0])
    def test_block_memory_within_stated_bound(self, n):
        """The tracemalloc peak of one block is at most its draws at 2
        bytes a cell, which the draw budget bounds, the tile buffers at 17
        bytes per tile cell, one piece of 8-byte raw outputs, the block's
        seven output columns twice (the columns and the temporaries of
        gamma and S'_nu) and 256 KiB for the rest."""
        size = BLOCK_SIZE
        spec = ModelSpec("product", {})
        cap = spec.step_cap(n)
        rows, _ = models._sub_chunk(size, cap)
        bound = (2 * rows * cap + 17 * models._PRODUCT_TILE_CELLS
                 + 8 * models._RAW_PIECE + 2 * len(COLUMNS) * 8 * size
                 + (256 << 10))
        rng = block_rng()
        tracemalloc.start()
        try:
            spec.law.sample_block(n, size, rng, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_memory_bounded_at_large_n(self):
        """512 product rows (one chunk) at n = 2^18, where dense (512, cap)
        uniform, sign and increment matrices would take about 2.7 GB."""
        code = (
            "import resource, numpy as np\n"
            "from stopsum import ModelSpec\n"
            "spec = ModelSpec('product', {})\n"
            "n = 2.0 ** 18\n"
            "rng = np.random.Generator(np.random.Philox("
            "np.random.SeedSequence(3)))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "out = spec.law.sample_block(n, 512, rng, spec.step_cap(n))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "ok = (out['v_before'] < n) & (n <= out['v_before'] "
            "+ out['sigma_nu_sq'])\n"
            "print(after - before, out['nu'].size, bool(ok.all()))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(stopsum.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=600)
        grown_kib, rows, ok = proc.stdout.split()
        assert (int(rows), ok) == (512, "True")
        assert int(grown_kib) < 32 * 1024        # ru_maxrss is in KiB


class TestOverflowBoundary:
    """nu = cap - 1 still fits the block samplers; nu = cap overflows."""

    def test_regime_cap_at_max_nu(self, monkeypatch):
        n, r = 64.0, 3000
        free = sample_stopped_batch(REGIME, n, r, 4)
        top = int(free.nu.max())
        assert top + 1 < REGIME.step_cap(n)
        monkeypatch.setattr(models, "MAX_STEPS", top + 1)
        assert_batch_equal(sample_stopped_batch(REGIME, n, r, 4), free)
        monkeypatch.setattr(models, "MAX_STEPS", top)
        with pytest.raises(PathOverflowError):
            sample_stopped_batch(REGIME, n, r, 4)

    # the product draw layout is (rows, cap), so a new cap redraws every
    # row; growth probability 0 or 1 fixes nu on every path, and the capped
    # batch is checked against the reference at the same cap
    @pytest.mark.parametrize("p_growth,n", [(0.0, 300.0), (1.0, 1100.0)])
    def test_product_cap_at_nu(self, monkeypatch, p_growth, n):
        spec = ModelSpec("product", {"p_growth": p_growth})
        nu = sample_stopped_batch(spec, n, 600, 4).nu
        assert nu.min() == nu.max() > 256
        top = int(nu[0])
        monkeypatch.setattr(models, "MAX_STEPS", top + 1)
        batch = sample_stopped_batch(spec, n, 600, 4)
        assert np.all(batch.nu == top)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(4, spawn_key=(0,))))
        want = reference_product(spec.law, n, 600, rng, top + 1)
        assert_columns_identical(
            {name: getattr(batch, name) for name in COLUMNS}, want)
        monkeypatch.setattr(models, "MAX_STEPS", top)
        with pytest.raises(PathOverflowError):
            sample_stopped_batch(spec, n, 600, 4)
