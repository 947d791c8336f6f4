import json
import operator
import pickle
import tracemalloc

import numpy as np
import pytest
from truth_oracle import _draw_covariates as one_shot_covariates
from truth_oracle import true_rr_oracle

from riskratio import (
    DGPSpec,
    ValidationError,
    export_sample,
    generate,
    load_csv,
    oracle_models,
    softplus_mean_quadrature,
    true_rr,
)
from riskratio.data import _WRITE_BLOCK_ROWS
from riskratio.dgp import (
    _STREAM_COVARIATES,
    _TRUTH_BLOCK_ROWS,
    KINDS,
    _baseline,
    _draw_covariates,
    _effect,
    _influence_var,
    _merge_moments,
    _moments,
    _pairwise_tree,
)
from riskratio.rng import CounterRng, derive_seed

MC_KINDS = [k for k in KINDS if k != "linear_rct"]  # the designs with a Monte-Carlo truth

LUNCEFORD_MEAN_COVARIATES = np.array([-0.6, 0.6, 0.2, -0.6, 0.6, 0.35])
LUNCEFORD_BASELINE_COEF = np.array([-1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
LUNCEFORD_MEAN_BASELINE = float(LUNCEFORD_BASELINE_COEF @ LUNCEFORD_MEAN_COVARIATES)  # 2.55


def independent_lunceford_covariates(n, seed):
    """Reference implementation of the mixture covariate law using numpy's RNG."""
    g = np.random.default_rng(seed)
    cov = np.array(
        [
            [1.0, 0.5, -0.5, -0.5],
            [0.5, 1.0, -0.5, -0.5],
            [-0.5, -0.5, 1.0, 0.5],
            [-0.5, -0.5, 0.5, 1.0],
        ]
    )
    x3 = (g.random(n) < 0.2).astype(float)
    mean = np.where(x3[:, None] == 1.0, [1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0])
    block = g.multivariate_normal(np.zeros(4), cov, size=n) + mean
    v3 = (g.random(n) < (0.75 * x3 + 0.25 * (1 - x3))).astype(float)
    return np.column_stack([block[:, 0], block[:, 2], x3, block[:, 1], block[:, 3], v3])


class TestGenerate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_observed_outcome_is_consistent_row_wise(self, kind):
        s = generate(DGPSpec(kind=kind, n=500, seed=1))
        recombined = np.where(s.dataset.t == 1, s.y1, s.y0)
        assert np.array_equal(s.dataset.y, recombined)
        assert np.all((s.e_true > 0.0) & (s.e_true < 1.0))
        assert s.dataset.p == 6

    def test_reproducible_bit_for_bit(self):
        a = generate(DGPSpec(kind="lunceford", n=300, seed=5))
        b = generate(DGPSpec(kind="lunceford", n=300, seed=5))
        assert np.array_equal(a.dataset.x, b.dataset.x)
        assert np.array_equal(a.dataset.y, b.dataset.y)
        assert np.array_equal(a.dataset.t, b.dataset.t)
        c = generate(DGPSpec(kind="lunceford", n=300, seed=6))
        assert not np.array_equal(a.dataset.y, c.dataset.y)

    def test_constant_effect_with_zero_noise(self):
        s = generate(DGPSpec(kind="lunceford", n=200, seed=2, noise_sd=0.0))
        assert np.allclose(s.y1 - s.y0, 2.0)
        assert np.allclose(s.y0, s.dataset.x @ LUNCEFORD_BASELINE_COEF)
        assert np.allclose(s.mu1_true - s.mu0_true, 2.0)

    def test_noise_variance_close_to_nominal(self):
        s = generate(DGPSpec(kind="linear_rct", n=100_000, seed=3, noise_sd=2.0))
        assert np.var(s.y0 - s.mu0_true) == pytest.approx(4.0, rel=0.05)
        assert np.var(s.y1 - s.mu1_true) == pytest.approx(4.0, rel=0.05)

    def test_lunceford_covariate_law_matches_reference(self):
        ours = generate(DGPSpec(kind="lunceford", n=100_000, seed=4)).dataset.x
        ref = independent_lunceford_covariates(10**6, seed=0)
        assert np.allclose(ours.mean(axis=0), ref.mean(axis=0), atol=0.02)
        assert np.allclose(ours.mean(axis=0), LUNCEFORD_MEAN_COVARIATES, atol=0.02)
        b_ours = ours @ LUNCEFORD_BASELINE_COEF
        b_ref = ref @ LUNCEFORD_BASELINE_COEF
        assert b_ours.mean() == pytest.approx(b_ref.mean(), abs=0.05)
        assert b_ours.var() == pytest.approx(b_ref.var(), rel=0.05)

    def test_lunceford_propensity_mean_and_overlap(self):
        sample = generate(DGPSpec(kind="lunceford", n=100_000, seed=7))
        from riskratio.nuisance import expit

        ref = independent_lunceford_covariates(10**6, seed=1)
        target = expit(ref[:, :3] @ np.array([-0.6, 0.6, -0.6])).mean()
        assert sample.e_true.mean() == pytest.approx(target, abs=0.01)
        assert 0.001 < sample.e_true.min() and sample.e_true.max() < 0.999

    def test_uniform_designs_stay_in_unit_cube(self):
        for kind in ("nonlinear_rct", "wager_nl_nonlogistic"):
            s = generate(DGPSpec(kind=kind, n=5_000, seed=8))
            assert s.dataset.x.min() >= 0.0 and s.dataset.x.max() < 1.0

    def test_clipped_sine_propensity_band(self):
        s = generate(DGPSpec(kind="wager_nl_nonlogistic", n=5_000, seed=9))
        assert s.e_true.min() >= 0.1 and s.e_true.max() <= 0.9

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            DGPSpec(kind="unknown", n=10, seed=0)
        with pytest.raises(ValidationError):
            DGPSpec(kind="lunceford", n=0, seed=0)
        with pytest.raises(ValidationError):
            DGPSpec(kind="lunceford", n=10, seed=0, noise_sd=-1.0)
        with pytest.raises(ValidationError, match="unknown DGP kind"):
            true_rr("unknown")
        with pytest.raises(ValidationError, match="unknown DGP kind"):
            oracle_models("unknown")


class TestTrueRR:
    def test_linear_design_closed_form(self):
        t = true_rr("linear_rct")
        assert t.value == 2.0 and t.provenance == "closed_form"

    def test_mixture_design_matches_analytic_mean(self):
        t = true_rr("lunceford", mc_draws=10**6, seed=11)
        expected = 2.0 / LUNCEFORD_MEAN_BASELINE + 1.0
        assert t.provenance == "mc_oracle"
        assert t.value == pytest.approx(expected, abs=4 * t.mc_se + 1e-4)
        assert t.mc_draws == 10**6 and t.mc_se < 0.01

    def test_softplus_design_quadrature_agreement(self):
        t = true_rr("wager_nl_logistic", mc_draws=10**6, seed=12)
        by_quadrature = 1.0 / softplus_mean_quadrature(scale_sq=3.0) + 1.0
        assert abs(t.value - by_quadrature) < 1e-3

    def test_quadrature_node_count_stability(self):
        assert softplus_mean_quadrature(nodes=64) == pytest.approx(
            softplus_mean_quadrature(nodes=160), abs=1e-9
        )

    def test_draw_floor_enforced(self):
        with pytest.raises(ValidationError):
            true_rr("lunceford", mc_draws=10**4)

    # draw counts whose last leaf is a multiple of 8 rows or not, from 64 to
    # 512 leaves
    @pytest.mark.parametrize(
        "mc_draws, seed",
        [(10**5, 0), (10**5 + 3, 11), (114_687, 3), (114_689, 12), (333_337, 5), (10**6, 7)],
    )
    @pytest.mark.parametrize("kind", MC_KINDS)
    def test_blocked_oracle_matches_one_shot_oracle(self, kind, mc_draws, seed):
        got = true_rr(kind, mc_draws=mc_draws, seed=seed)
        want = true_rr_oracle(kind, mc_draws=mc_draws, seed=seed)
        assert got.value.hex() == want.value.hex()
        # merged co-moments, not np.std of the whole influence vector
        assert got.mc_se == pytest.approx(want.mc_se, rel=1e-13, abs=0.0)
        assert (got.provenance, got.mc_draws) == (want.provenance, want.mc_draws)

    @staticmethod
    def _traced_peak(kind, mc_draws):
        tracemalloc.start()
        try:
            true_rr(kind, mc_draws=mc_draws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", MC_KINDS)
    def test_oracle_memory_is_bounded_per_draw(self, kind):
        # the one-shot oracle peaked at 128-168 bytes per draw, one with the
        # whole effect and baseline vectors at 19 (19 MB at 10^6 draws); one
        # leaf at a time peaks well under 1 MB
        assert self._traced_peak(kind, 10**6) <= 4 * 2**20

    # a uniform and a normal design (tracemalloc slows the oracle's many small
    # allocations 2-3 times)
    @pytest.mark.parametrize("kind", ["nonlinear_rct", "wager_nl_logistic"])
    def test_oracle_memory_does_not_grow_with_the_draw_count(self, kind):
        assert self._traced_peak(kind, 4 * 10**6) <= 4 * 2**20

    @pytest.mark.parametrize("kind", MC_KINDS)
    def test_oracle_draws_each_covariate_counter_once(self, kind, monkeypatch):
        mc_draws = 10**5 + 7
        stretches = []
        uniforms = CounterRng.uniforms

        def counted(rng, n):
            stretches.append((rng.seed, rng._pos, n))
            return uniforms(rng, n)

        monkeypatch.setattr(CounterRng, "uniforms", counted)
        true_rr(kind, mc_draws=mc_draws, seed=3)
        assert {s for s, _, _ in stretches} == {derive_seed(3, _STREAM_COVARIATES)}
        assert sum(n for _, _, n in stretches) == 6 * mc_draws
        # sorted by start, the stretches tile counters 0 .. 6 * mc_draws
        ends = [0]
        for _, start, n in sorted(stretches):
            assert start == ends[-1]
            ends.append(start + n)
        assert ends[-1] == 6 * mc_draws


def _streamed(m, b):
    return _pairwise_tree(0, m.size, lambda lo, hi: _moments(m[lo:hi], b[lo:hi]), _merge_moments)


def _leaves(n):
    """The row ranges the truth oracle draws one at a time."""
    return _pairwise_tree(0, n, lambda lo, hi: [(lo, hi)], operator.add)


class TestStreamedMoments:
    # around multiples of 8 and of 2^17, and from 64 to 2048 leaves
    @pytest.mark.parametrize(
        "n",
        [*(10**5 + k for k in (0, 1, 7, 8, 9)), 2**17 - 1, 2**17 + 1, 10**6, 3 * 10**6 + 7],
    )
    def test_streamed_sum_is_the_sum_of_the_whole_vector(self, n):
        g = np.random.default_rng(n)
        # magnitudes over 16 decades, so that any other summation order shows
        v = g.standard_normal(n) * 10.0 ** g.integers(-8, 8, n)
        total = _streamed(v, v[::-1])
        assert (0.0 + total.sum_m).hex() == np.add.reduce(v).hex()
        assert (0.0 + total.sum_b).hex() == np.add.reduce(v[::-1].copy()).hex()

    @pytest.mark.parametrize("n", [10**5 + 9, 2**17 + 1])
    def test_sign_of_a_zero_sum_is_numpys(self, n):
        signed = np.where(np.random.default_rng(n).random(n) < 0.5, 0.0, -0.0)
        # leaves sum from -0.0, so the tree keeps an all -0.0 sum negative, and
        # the identity 0.0 that np.add.reduce starts from makes it 0.0
        for v, tree_sum in ((signed, 0.0), (-np.zeros(n), -0.0), (np.zeros(n), 0.0)):
            total = _streamed(v, v)
            assert total.sum_m.hex() == tree_sum.hex()
            assert (0.0 + total.sum_m).hex() == np.add.reduce(v).hex() == "0x0.0p+0"

    def test_merged_co_moments_match_the_whole_sample(self):
        g = np.random.default_rng(1)
        b = g.uniform(0.0, 3.0, 3 * _TRUTH_BLOCK_ROWS + 5)
        m = np.sin(b) + g.standard_normal(b.size)
        mom = _streamed(m, b)
        dm, db = m - m.mean(), b - b.mean()
        assert mom.rows == b.size
        for got, want in ((mom.c_mm, dm @ dm), (mom.c_bb, db @ db), (mom.c_mb, dm @ db)):
            assert got == pytest.approx(want, rel=1e-12)
        r = m.mean() / b.mean()
        assert _influence_var(mom, r) == pytest.approx(np.var(m - r * b), rel=1e-12)

    def test_influence_variance_of_proportional_surfaces_is_zero_not_negative(self):
        # m = 0.7 b: every influence value is 0, and for this sample the
        # merged co-moments round the variance formula below 0
        b = np.random.default_rng(1).uniform(1.0, 2.0, 1000)
        r, m = 0.7, 0.7 * b
        mom = _merge_moments(_moments(m[:488], b[:488]), _moments(m[488:], b[488:]))
        assert mom.c_mm - 2.0 * r * mom.c_mb + r * r * mom.c_bb < 0.0
        assert _influence_var(mom, r) == 0.0


class TestCovariateLayout:
    @pytest.mark.parametrize("n", [49_151, 49_153])
    @pytest.mark.parametrize("kind", KINDS)
    def test_row_blocks_rebuild_the_one_shot_sample(self, kind, n):
        seed = 5
        want = one_shot_covariates(kind, n, CounterRng(derive_seed(seed, _STREAM_COVARIATES)))
        assert np.array_equal(_draw_covariates(kind, seed, n, 0, n), want)
        blocks = [_draw_covariates(kind, seed, n, a, b) for a, b in _leaves(n)]
        assert min(len(x) for x in blocks) >= 2
        assert np.array_equal(np.vstack(blocks), want)
        for surface in (_effect, _baseline):
            by_block = np.concatenate([surface(kind, x) for x in blocks])
            assert np.array_equal(by_block, surface(kind, want))

    @pytest.mark.parametrize("n", [2, 3, 16_385, 114_688, 10**6])
    def test_truth_blocks_tile_the_sample_without_lone_rows(self, n):
        blocks = _leaves(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(2 <= hi - lo <= _TRUTH_BLOCK_ROWS for lo, hi in blocks)
        assert all(lo % 8 == 0 for lo, _ in blocks)
        assert all((hi - lo) % 8 == 0 for lo, hi in blocks[:-1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_any_range_of_two_or_more_rows_reads_its_own_rows(self, kind):
        n, seed = 40, 9
        full = _draw_covariates(kind, seed, n, 0, n)
        for a, b in [(0, 2), (7, 9), (38, 40), (3, 30), (0, 40)]:
            assert np.array_equal(_draw_covariates(kind, seed, n, a, b), full[a:b])

    @pytest.mark.parametrize("kind", KINDS)
    def test_generate_draws_rows_zero_to_n(self, kind):
        spec = DGPSpec(kind, n=50, seed=4)
        assert np.array_equal(generate(spec).dataset.x, _draw_covariates(kind, 4, 50, 0, 50))


class TestOracleModels:
    def test_outcome_ratio_on_linear_design(self):
        from riskratio import rr_g

        _, mu0, mu1 = oracle_models("linear_rct")
        sample = generate(DGPSpec(kind="linear_rct", n=100_000, seed=13))
        x = sample.dataset.x
        assert rr_g(mu0.predict(x), mu1.predict(x)).value == pytest.approx(2.0, abs=0.02)

    def test_randomised_designs_have_constant_half_propensity(self):
        for kind in ("linear_rct", "nonlinear_rct"):
            e_model, _, _ = oracle_models(kind)
            x = generate(DGPSpec(kind=kind, n=50, seed=14)).dataset.x
            assert np.allclose(e_model.predict(x), 0.5)

    def test_logistic_oracle_at_origin_is_half(self):
        e_model, _, _ = oracle_models("wager_nl_logistic")
        row = np.array([3.0, 0.0, 0.0, -2.0, 1.0, 0.5])  # second and third are zero
        assert e_model.predict(row)[0] == 0.5

    @pytest.mark.parametrize("kind", KINDS)
    def test_surfaces_match_generated_truth(self, kind):
        s = generate(DGPSpec(kind=kind, n=400, seed=15))
        models = oracle_models(kind)
        for e_model, mu0, mu1 in (models, pickle.loads(pickle.dumps(models))):
            assert np.array_equal(mu0.predict(s.dataset.x), s.mu0_true)
            assert np.array_equal(mu1.predict(s.dataset.x), s.mu1_true)
            assert np.array_equal(e_model.predict(s.dataset.x), s.e_true)


class TestExport:
    def test_export_round_trip(self, tmp_path):
        s = generate(DGPSpec(kind="lunceford", n=50, seed=16))
        csv_path, sidecar_path = export_sample(s, tmp_path)
        back = load_csv(csv_path)
        assert np.array_equal(back.y, s.dataset.y)
        assert np.array_equal(back.x, s.dataset.x)
        sidecar = json.loads(open(sidecar_path, encoding="utf-8").read())
        assert np.allclose(sidecar["y0"], s.y0)
        assert np.allclose(sidecar["e_true"], s.e_true)
        assert set(sidecar) == {"y0", "y1", "e_true", "mu0_true", "mu1_true"}

    @pytest.mark.parametrize(
        "n",
        [1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 1],
    )
    def test_sidecar_is_the_json_dump_of_five_whole_lists(self, tmp_path, n):
        s = generate(DGPSpec(kind="wager_nl_logistic", n=n, seed=n))
        _, sidecar_path = export_sample(s, tmp_path)
        keys = ("y0", "y1", "e_true", "mu0_true", "mu1_true")
        want = json.dumps({key: getattr(s, key).tolist() for key in keys})
        with open(sidecar_path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")
