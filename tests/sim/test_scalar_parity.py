"""Scalar-oracle parity inside whole-cluster simulation runs.

Every segment execution a server makes during a run is repeated on the
row-at-a-time oracle over the same segment, query and valid-docId mask
(:mod:`repro.sim.parity`); the reduced rows must be identical.
"""

import pytest

from repro.sim.harness import run_seed
from repro.sim.parity import scalar_parity


@pytest.mark.parametrize("workload", ["default", "upsert"])
@pytest.mark.parametrize("seed", [0, 1])
def test_sim_run_matches_scalar_oracle(workload, seed):
    with scalar_parity() as parity:
        result = run_seed(seed, config={"workload": workload})
    assert parity.mismatches == []
    assert result.ok, result.summary()
    assert parity.checked > 0


def test_served_results_and_digest_unchanged():
    plain = run_seed(2, num_steps=25)
    with scalar_parity():
        checked = run_seed(2, num_steps=25)
    assert checked.digest == plain.digest
