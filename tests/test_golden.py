"""Golden pin of ``run_single`` for the model-based estimators.

Point estimates and variances for ``ipw``, ``g``, ``os`` and ``aipw`` under
parametric, forest and oracle nuisances on one fixed sample, stored as
``float.hex`` strings and compared for exact equality.  Any change to the
nuisance-fitting path, the forest seeds or the variance formulas that moves
a single bit shows up here.
"""

import pytest

from riskratio.dgp import DGPSpec, generate, oracle_models
from riskratio.montecarlo import EstimatorConfig, run_single

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
