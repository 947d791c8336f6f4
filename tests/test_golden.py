"""Golden pins of ``run_single`` and of model serialisation.

Point estimates and variances for ``ipw``, ``g``, ``os`` and ``aipw`` under
parametric, forest and oracle nuisances on one fixed sample, stored as
``float.hex`` strings and compared for exact equality.  Any change to the
nuisance-fitting path, the forest seeds or the variance formulas that moves
a single bit shows up here.  The ``model_to_json`` text of one model of each
serialisable kind is pinned by its sha256, and a JSON round trip must
predict bit for bit.
"""

import hashlib

import numpy as np
import pytest

from riskratio.dgp import DGPSpec, generate, oracle_models
from riskratio.montecarlo import EstimatorConfig, run_single
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
