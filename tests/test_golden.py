"""Golden pins of ``run_single`` and of model serialisation.

Point estimates and variances for ``ipw``, ``g``, ``os`` and ``aipw`` under
parametric, forest and oracle nuisances on one fixed sample, stored as
``float.hex`` strings and compared for exact equality.  Any change to the
nuisance-fitting path, the forest seeds or the variance formulas that moves
a single bit shows up here.  The ``model_to_json`` text of one model of each
serialisable kind is pinned by its sha256, and a JSON round trip must
predict bit for bit.  Forests in the ``mc_forest`` benchmark shape (100
trees on a 250-row fold complement of ``wager_nl_nonlogistic``) and small
forests under non-default growth settings pin both their JSON text and
their predictions, so any change to tree growth, its random draws or the
ensemble mean shows up here.  The ``report_to_json`` text of one small
Monte-Carlo plan, with a size where some estimators fail in every
replication and one where all succeed, pins the replication accounting.
The bytes ``write_csv`` writes for two fixed samples are pinned by their
sha256.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import random_dataset
from riskratio.data import write_csv
from riskratio.dgp import DGPSpec, generate, oracle_models
from riskratio.montecarlo import (
    EstimatorConfig,
    ExperimentPlan,
    report_to_json,
    run_experiment,
    run_single,
)
from riskratio.nuisance import (
    ForestConfig,
    constant_outcome,
    constant_propensity,
    fit_forest_classifier,
    fit_forest_regressor,
    fit_logistic_mle,
    fit_ols,
    model_from_json,
    model_to_json,
)

SEED = 2024

# (method, nuisance) -> (point.value.hex(), v_hat.hex()) on lunceford n=400,
# sample seed 11, k=2 folds, 4-tree forests, estimator seed 2024
GOLDEN = {
    ("ipw", "parametric"): ("0x1.1903387b77d4fp+1", "0x1.302c748c430c9p+7"),
    ("g", "parametric"): ("0x1.bba2d4aa1ec84p+0", "0x1.e5cc0524ca86dp+8"),
    ("os", "parametric"): ("0x1.bbcf8dfde1312p+0", "0x1.45cddf0b71df9p+2"),
    ("aipw", "parametric"): ("0x1.bc28dc989cfbfp+0", "0x1.46510b6455836p+2"),
    ("ipw", "forest"): ("0x1.2ef22caeb9ff4p+2", "0x1.2bcbaf0241e21p+10"),
    ("g", "forest"): ("0x1.31fd4f11093b3p+1", "0x1.5015ab2b023a8p+9"),
    ("os", "forest"): ("-0x1.8caf383639862p+1", "0x1.8107cbebd9cd6p+8"),
    ("aipw", "forest"): ("0x1.c50042caa0052p-1", "0x1.f61d684179ea6p+4"),
    ("ipw", "oracle"): ("0x1.b90356d47a4a3p+0", "0x1.43213aa618ae4p+6"),
    ("g", "oracle"): ("0x1.c8c456ba4a6bcp+0", "0x1.067b76acdc5c0p+9"),
    ("os", "oracle"): ("0x1.bb3e60ee8d22bp+0", "0x1.2143a7c838e46p+2"),
    ("aipw", "oracle"): ("0x1.bbba3eca01daap+0", "0x1.21e56a92c200ep+2"),
}


@pytest.fixture(scope="module")
def sample():
    return generate(DGPSpec(kind="lunceford", n=400, seed=11)).dataset


@pytest.mark.parametrize("method, nuisance", sorted(GOLDEN))
def test_run_single_is_bit_identical(sample, method, nuisance):
    cfg = EstimatorConfig(method=method, nuisance=nuisance, k=2, n_trees=4)
    est = run_single(sample, cfg, SEED, oracle_models("lunceford"))
    point_hex, v_hex = GOLDEN[(method, nuisance)]
    assert est.point.value == float.fromhex(point_hex)
    assert est.v_hat == float.fromhex(v_hex)


@pytest.fixture(scope="module")
def models(sample):
    """One model of each serialisable kind, fitted on the golden sample."""
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


# sha256 of model_to_json(model) for each model of the ``models`` fixture
GOLDEN_JSON = {
    "constant_outcome": "773b728430b030f782a79f290eb43ed6ef6b0a377cd2b9f998eba0bc29f8089b",
    "constant_propensity": "9ffbe67934c6ee69fb39acb986c9faf3d358cc372aa5105ddc1833051ad5fee6",
    "forest_classifier": "f82bb1912ef0c2f322448ec9663733f296ca80369b64e44c7f9006882ce615b5",
    "forest_regressor": "e43e9b66257eb77e647aa2ae0868dd780af84a6f72798a6a52df9d530dd10fa7",
    "logistic": "d497de7c2b034412ac2e6243c1d217342d3aa0acb63cfdbeb7d54a605fcfe4ea",
    "ols": "75e98e5ce46525db0a319ff323f6c50e6498d7a347cf0db8ec38263060f65bce",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_model_json_is_byte_identical(models, name):
    text = model_to_json(models[name])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_JSON[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_model_json_round_trip_predicts_bit_for_bit(sample, models, name):
    model = models[name]
    back = model_from_json(model_to_json(model))
    assert np.array_equal(back.predict(sample.x), model.predict(sample.x))


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
    "min_leaf_1_classifier": ("classifier", dict(n_trees=5, min_leaf=1, seed=3)),
    "min_leaf_1_regressor": ("regressor", dict(n_trees=5, min_leaf=1, seed=3)),
    "depth_3_all_features_classifier": ("classifier", dict(n_trees=5, max_depth=3, mtry=6, seed=4)),
    "depth_3_all_features_regressor": ("regressor", dict(n_trees=5, max_depth=3, mtry=6, seed=4)),
    "no_bootstrap_classifier": ("classifier", dict(n_trees=5, bootstrap=False, seed=6)),
    "no_bootstrap_regressor": ("regressor", dict(n_trees=5, bootstrap=False, seed=6)),
}

# name -> (sha256 of model_to_json, sha256 of the float.hex predictions)
GOLDEN_FOREST = {
    "mc_forest_classifier": (
        "d08077335bd5d2a3d12f4df04e47b9b0fde4e078c1d7d5206435a46a4295a5cd",
        "e93d3c9f929373ab44d50d914ff2c1bfd562da8fe3357b16691b4f873df4a663",
    ),
    "mc_forest_regressor": (
        "833342d8efb2e3fbcac7581c2a12a83da184242aa45a4a8dc94a775b6258fd4e",
        "f2021ee5afa69efb5ad7ea980fd9562c3655dfc78af666d7ea5dc5606dd7c3dc",
    ),
    "min_leaf_1_classifier": (
        "d79a14ad4347bf8ce420335f10ef0f5945bf14bc280e634272c7c5eda7529ea2",
        "8087dd549b7c760e520be59aad1a05f5ec8c923bf20466aa896f27ada42d48e5",
    ),
    "min_leaf_1_regressor": (
        "457186a1336292a25af1531572fe720288f97af77364c197c08d476f99ef68cf",
        "f2577ac1e5900165273c6bd4fbb5e4377fe2808da8954d882055243da5fbec1a",
    ),
    "depth_3_all_features_classifier": (
        "e8174b5c357829c879f44a8cf6a544b15ab2a565221d10cac2a0679ad33bc280",
        "f9472be971041aef1d51afe875eda4e0d27b6583ebc06e62cb19136856dce78c",
    ),
    "depth_3_all_features_regressor": (
        "8019abb2397804447733bd18fb66f0fd19c397b3d3cdda6bdb18bb0a6c1057bc",
        "05b30b79b46d50bb97f0650921f5d860cb43d5bc606876fa168282bc51a26934",
    ),
    "no_bootstrap_classifier": (
        "e7d49e1e9b2048e38d9a2aa663ba96d61f9813a232631bb393e68521d597b151",
        "850f1280ff7ade2a5a45bdc00a29b38b0053d9e854a47ca8439f8b61fc8ee8b2",
    ),
    "no_bootstrap_regressor": (
        "324b5eb22777e6a44fba5001cf45851bbaf1fdb7720d76f2ff6abeac9ffdfd9b",
        "6da1f038e0a4127748917c0a00d536d8d03fd4f0621f4ed3be752cade46be0ea",
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
def test_forest_json_and_predictions_are_bit_identical(wager, forests, name):
    model = forests[name]
    json_sha, predict_sha = GOLDEN_FOREST[name]
    assert _sha256(model_to_json(model)) == json_sha
    assert _predict_digest(model.predict(wager.x)) == predict_sha


# sha256 of the report_to_json text (indent=2, as report.json is written)
GOLDEN_REPORT = "4d13ee54fce916c8373a2423efe8e1d6eecaf46db3c6f7214ff6b7b1724d7822"


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
