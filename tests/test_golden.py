"""Golden pins of ``run_single`` and of fitted models.

Point estimates, variances and interval bounds for ``ipw``, ``g``, ``os``
and ``aipw`` under parametric, forest and oracle nuisances, and for the
design-based ``neyman`` and ``ht``, on one fixed sample, stored as
``float.hex`` strings and compared for exact equality.  ``run_single``
refuses forest ``ipw`` and ``g``, so their pins hold the same full-sample
plug-ins built from the public forest learners.  Any change to the
nuisance-fitting path, the forest seeds, the variance formulas or the
critical value that moves a single bit shows up here.  A constant and a
forest model of each target, a logistic propensity and an OLS outcome
model are pinned by ``helpers.model_digest``, the sha256 of every value
they predict from.  Forests in the ``mc_forest`` benchmark shape (100
trees on a 250-row fold complement of ``wager_nl_nonlogistic``) and
5-tree forests under three more seeds pin both that digest and their
predictions, so any change to tree growth, its random draws or the
ensemble mean shows up here.  The
``report_to_json`` text of one small Monte-Carlo plan, with a size where
some estimators fail in every replication and one where all succeed, pins
the replication accounting.  The bytes ``write_csv`` writes for two fixed
samples are pinned by their sha256.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import constant_outcome, constant_propensity, model_digest, random_dataset
from riskratio.data import write_csv
from riskratio.dgp import DGPSpec, generate, oracle_models
from riskratio.estimators import rr_g, rr_ipw
from riskratio.inference import attach_interval, var_g, var_ipw
from riskratio.montecarlo import (
    EstimatorConfig,
    ExperimentPlan,
    report_to_json,
    run_experiment,
    run_single,
)
from riskratio.nuisance import (
    ForestConfig,
    fit_forest_classifier,
    fit_forest_regressor,
    fit_logistic_mle,
    fit_ols,
)
from riskratio.rng import derive_seed

SEED = 2024

# (method, nuisance) -> (point.value.hex(), v_hat.hex()) on lunceford n=400,
# sample seed 11, k=2 folds, 4-tree forests, estimator seed 2024; the
# design-based neyman and ht fit no nuisances, and ht uses e = 0.5; forest
# ipw and g are the full-sample plug-ins of _forest_plug_in
GOLDEN = {
    ("neyman", "parametric"): ("-0x1.16610ac86595ep+4", "0x1.c9bb96818d9f2p+16"),
    ("ht", "parametric"): ("-0x1.9d3ef690d6675p+4", "0x1.9b6e07375766bp+17"),
    ("ipw", "parametric"): ("0x1.1903387b77d4fp+1", "0x1.302c748c430c9p+7"),
    ("g", "parametric"): ("0x1.bba2d4aa1ec84p+0", "0x1.e5cc0524ca86dp+8"),
    ("os", "parametric"): ("0x1.bbcf8dfde1312p+0", "0x1.45cddf0b71df9p+2"),
    ("aipw", "parametric"): ("0x1.bc28dc989cfbfp+0", "0x1.46510b6455836p+2"),
    ("ipw", "forest"): ("0x1.2ef22caeb9ff4p+2", "0x1.2bcbaf0241e21p+10"),
    ("g", "forest"): ("0x1.31fd4f11093b3p+1", "0x1.5015ab2b023a8p+9"),
    ("os", "forest"): ("-0x1.8caf383639862p+1", "0x1.8107cbebd9cd6p+8"),
    ("aipw", "forest"): ("0x1.c50042caa0052p-1", "0x1.f61d684179ea6p+4"),
    ("ipw", "oracle"): ("0x1.b90356d47a4a6p+0", "0x1.43213aa618aecp+6"),
    ("g", "oracle"): ("0x1.c8c456ba4a6bcp+0", "0x1.067b76acdc5c0p+9"),
    ("os", "oracle"): ("0x1.bb3e60ee8d22bp+0", "0x1.2143a7c838e46p+2"),
    ("aipw", "oracle"): ("0x1.bbba3eca01daap+0", "0x1.21e56a92c200ep+2"),
}


# (method, nuisance) -> (ci_lower.hex(), ci_upper.hex()) of the same runs: the
# default wald interval at alpha 0.05
GOLDEN_CI = {
    ("aipw", "forest"): ("0x1.57d7ac728142ep-2", "0x1.6f0a57adffb46p+0"),
    ("aipw", "oracle"): ("0x1.86557b04a6d6ep+0", "0x1.f11f028f5cde6p+0"),
    ("aipw", "parametric"): ("0x1.8382df165bf0ap+0", "0x1.f4ceda1ade074p+0"),
    ("g", "forest"): ("-0x1.3391f88812380p-3", "0x1.3b99ded549ccfp+2"),
    ("g", "oracle"): ("-0x1.d82a5fe5dde20p-2", "0x1.01e4d15b83140p+2"),
    ("g", "parametric"): ("-0x1.b540f1e142c50p-2", "0x1.f24af2e64720ep+1"),
    ("ht", "parametric"): ("-0x1.1b394c6064b32p+6", "0x1.3267445fe5fddp+4"),
    ("ipw", "forest"): ("0x1.5705adfe03cd0p+0", "0x1.041176eef985ap+3"),
    ("ipw", "oracle"): ("0x1.af0ea590224e7p-1", "0x1.4d3fad7071b6cp+1"),
    ("ipw", "parametric"): ("0x1.f94615207233cp-1", "0x1.b3b4ebaed31cfp+1"),
    ("neyman", "parametric"): ("-0x1.978f41bc3d088p+5", "0x1.025c6de7aee54p+4"),
    ("os", "forest"): ("-0x1.41690d3e832bbp+2", "-0x1.2d18abded969bp+0"),
    ("os", "oracle"): ("0x1.85e884cca8708p+0", "0x1.f0943d1071d4ep+0"),
    ("os", "parametric"): ("0x1.8334f464dd2c0p+0", "0x1.f46a2796e5364p+0"),
}


@pytest.fixture(scope="module")
def sample():
    return generate(DGPSpec(kind="lunceford", n=400, seed=11)).dataset


def _forest_plug_in(d, method):
    """Full-sample forest ``ipw`` or ``g`` with run_single's seeds, clip and interval."""
    seed = derive_seed(SEED, 0xFE)  # run_single's forest stream
    if method == "ipw":
        e = fit_forest_classifier(d.x, d.t, ForestConfig(4, seed), clip=0.01).predict(d.x)
        point, v = rr_ipw(d, e), var_ipw(d, e)
    else:
        mu0, mu1 = (
            fit_forest_regressor(
                d.x[d.t == arm], d.y[d.t == arm], ForestConfig(4, derive_seed(seed, arm)), arm=arm
            ).predict(d.x)
            for arm in (0, 1)
        )
        point, v = rr_g(mu0, mu1), var_g(d, mu0, mu1)
    return attach_interval(point, v, d.n, 0.05, "wald")


def _estimate(d, method, nuisance):
    if nuisance == "forest" and method in ("ipw", "g"):
        return _forest_plug_in(d, method)
    cfg = EstimatorConfig(method=method, nuisance=nuisance, k=2, e=0.5, n_trees=4)
    return run_single(d, cfg, SEED, oracle_models("lunceford"))


@pytest.mark.parametrize("method, nuisance", sorted(GOLDEN))
def test_run_single_is_bit_identical(sample, method, nuisance):
    est = _estimate(sample, method, nuisance)
    point_hex, v_hex = GOLDEN[(method, nuisance)]
    assert est.point.value == float.fromhex(point_hex)
    assert est.v_hat == float.fromhex(v_hex)


@pytest.mark.parametrize("method, nuisance", sorted(GOLDEN_CI))
def test_run_single_interval_is_bit_identical(sample, method, nuisance):
    est = _estimate(sample, method, nuisance)
    lower_hex, upper_hex = GOLDEN_CI[(method, nuisance)]
    assert est.ci_lower == float.fromhex(lower_hex)
    assert est.ci_upper == float.fromhex(upper_hex)


@pytest.fixture(scope="module")
def models(sample):
    """One model on each surface type, fitted on the golden sample."""
    d = sample
    control = d.t == 0
    forest_cfg = ForestConfig(n_trees=3, seed=SEED)
    return {
        "logistic": fit_logistic_mle(d.x, d.t),
        "ols": fit_ols(d.x[control], d.y[control], arm=0),
        "constant_propensity": constant_propensity(0.3),
        "constant_outcome": constant_outcome(2.5, arm=0),
        "forest_classifier": fit_forest_classifier(d.x, d.t, forest_cfg),
        "forest_regressor": fit_forest_regressor(d.x[control], d.y[control], forest_cfg, arm=0),
    }


# model_digest(model) for each model of the ``models`` fixture
GOLDEN_MODEL = {
    "constant_outcome": "8f0a35efd8155625e5d99fb525709a07ae08d79a361e7d69cdd494325c7b511e",
    "constant_propensity": "5497f1daeb59dac4ca27d1c646f82b0bf96199a9757f67eb64932e7add083728",
    "forest_classifier": "49f29d6bdd37df8058ac493584321c4c5d865b41a35657fb8a8d160dce401566",
    "forest_regressor": "8d8019c6dd535ef9c63ca8fa01b471893fe011f1279ff6c845cc32caa10711fa",
    "logistic": "d5d345589e5d1ebddb078deec9c58024e5eb95288215664212e3f7517875eb2f",
    "ols": "584f79fed0aba6f4982ce27240b30d50b44f43313efea7a028412454582c21e7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL))
def test_model_digest_is_byte_identical(models, name):
    assert model_digest(models[name]) == GOLDEN_MODEL[name]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _predict_digest(pred: np.ndarray) -> str:
    return _sha256(",".join(float(v).hex() for v in pred))


@pytest.fixture(scope="module")
def wager():
    """500 rows of wager_nl_nonlogistic: fit on the first 250, predict on all."""
    return generate(DGPSpec(kind="wager_nl_nonlogistic", n=500, seed=5)).dataset


# name -> (learner, ForestConfig keyword arguments); the classifier fits
# (x, t) on the 250 training rows, the regressor (x, y) on their control arm
FOREST_CASES = {
    "mc_forest_classifier": ("classifier", dict(n_trees=100, seed=17)),
    "mc_forest_regressor": ("regressor", dict(n_trees=100, seed=17)),
    "trees_5_seed_3_classifier": ("classifier", dict(n_trees=5, seed=3)),
    "trees_5_seed_3_regressor": ("regressor", dict(n_trees=5, seed=3)),
    "trees_5_seed_4_classifier": ("classifier", dict(n_trees=5, seed=4)),
    "trees_5_seed_4_regressor": ("regressor", dict(n_trees=5, seed=4)),
    "trees_5_seed_6_classifier": ("classifier", dict(n_trees=5, seed=6)),
    "trees_5_seed_6_regressor": ("regressor", dict(n_trees=5, seed=6)),
}

# name -> (model_digest, sha256 of the float.hex predictions)
GOLDEN_FOREST = {
    "mc_forest_classifier": (
        "9a49ce1b55ad753ca8ecdd3e9452035b5536db55dca0e69f35ece1c008c82e6d",
        "e93d3c9f929373ab44d50d914ff2c1bfd562da8fe3357b16691b4f873df4a663",
    ),
    "mc_forest_regressor": (
        "f0724e967c35b89c5ee552a5054cbec0cc90596b54c28a7dee8e08267b3aba1d",
        "f2021ee5afa69efb5ad7ea980fd9562c3655dfc78af666d7ea5dc5606dd7c3dc",
    ),
    "trees_5_seed_3_classifier": (
        "706be996f085262f412c780c298a4e6208aeb35b90dfe9ff85b5fe4620857ce6",
        "2ba901dc82b460d375f262f68116dcd197a0ddb96fe930047e91dbc7414dc2f5",
    ),
    "trees_5_seed_3_regressor": (
        "180ddf696bb45ad6ba1758ff9d8431ae1ebb7db32c6315aca7cb4eb17ea43fd9",
        "19e4086584698d5ba94fd14c528e6246ab6222100bfe8c164f0181a59c44cdd4",
    ),
    "trees_5_seed_4_classifier": (
        "2b91509522deb015481b32dd2f5f7d44c2f4719e8c05fba889229315958f4757",
        "b83b7bd4b54653188f5d1dcced5ee23673dd8d312f579428b18e7bca49da923a",
    ),
    "trees_5_seed_4_regressor": (
        "bbbb21fc23fc0884b4ae6855d14e50d0d296b23717e13873067aea046428514f",
        "90fa0fcdc906f8eda37d84c40c0b70b91c168d25d1be49c03b50ef62ec58e7d3",
    ),
    "trees_5_seed_6_classifier": (
        "0c7e2e9db57008a904dc406aa7ccab5058a1a36d716cf0eb0f0ec3f69ebf9591",
        "62c1387bd881a1d3b194026f668300fd0a1ae1a66a4a5d8daf5a19fdaadbffe6",
    ),
    "trees_5_seed_6_regressor": (
        "9f3bc3f9fd99b6ba69e6360eb2bc5a7af785e3d01a3e07b2027280d8ad6d54c0",
        "883373dddf84428f2914cb377170f40de58b4552ed024a91d4e852d1ccded121",
    ),
}


@pytest.fixture(scope="module")
def forests(wager):
    x, t, y = wager.x[:250], wager.t[:250], wager.y[:250]
    control = t == 0
    out = {}
    for name, (learner, kwargs) in FOREST_CASES.items():
        cfg = ForestConfig(**kwargs)
        if learner == "classifier":
            out[name] = fit_forest_classifier(x, t, cfg)
        else:
            out[name] = fit_forest_regressor(x[control], y[control], cfg, arm=0)
    return out


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_digest_and_predictions_are_bit_identical(wager, forests, name):
    model = forests[name]
    digest, predict_sha = GOLDEN_FOREST[name]
    assert model_digest(model) == digest
    assert _predict_digest(model.predict(wager.x)) == predict_sha


# sha256 of the report_to_json text (indent=2, as report.json is written)
GOLDEN_REPORT = "f1b5646d548710c3c7dca856c6e2b89be1743f197b03e90c36ac905cd8fea41e"


def test_monte_carlo_report_is_byte_identical():
    # at n=12 OLS cannot fit (p+1 = 7 rows per arm), so parametric g and aipw
    # fail in every replication and ipw in most; at n=200 everything succeeds
    plan = ExperimentPlan(
        dgp_kind="linear_rct",
        sample_sizes=(12, 200),
        reps=6,
        estimators=(
            EstimatorConfig(method="neyman"),
            EstimatorConfig(method="ipw", nuisance="parametric"),
            EstimatorConfig(method="g", nuisance="parametric"),
            EstimatorConfig(method="aipw", nuisance="parametric", k=2),
            EstimatorConfig(method="os", nuisance="oracle", k=2),
        ),
        master_seed=7,
        truth_draws=10**5,
    )
    report = run_experiment(plan)
    by_key = {(c.estimator, c.n): c for c in report.cells}
    assert by_key[("parametric_g", 12)].n_failed == 6
    assert all(c.n_failed == 0 for c in report.cells if c.n == 200)
    assert _sha256(json.dumps(report_to_json(report), indent=2)) == GOLDEN_REPORT


# sha256 of the write_csv bytes for two fixed helpers.random_dataset samples
GOLDEN_CSV = {
    (7, 300, 3, False): "a7169b852080a80cad7f7a1e74af59625cf3db89874776a609053e98e76f357b",
    (8, 50, 1, True): "574a0321f899fd14614f66a38eea3ef6b8bb1717c5302ef1bbf97ea9ecd7a274",
}


@pytest.mark.parametrize("case", GOLDEN_CSV)
def test_write_csv_is_byte_identical(tmp_path, case):
    seed, n, p, binary = case
    path = tmp_path / "d.csv"
    write_csv(random_dataset(seed, n=n, p=p, binary=binary), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[case]
