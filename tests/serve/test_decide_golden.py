"""Golden digest of the decide responses.

One SHA-256 covers, bit for bit, the decision core of every response
(``response_core``: winner, runner-up, both totals, margin, plane
distance and nearest rival) for 50 seeded probes around the centre of
each of the 22 TPC-H queries under the three storage scenarios.

The pinned value was computed with the micro-batched server's decide
kernel, which answered every probe through ``explain_probe``.  Any
rewrite of the decide path must reproduce it exactly.  Run this file
as a script to print the digest of the checkout.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scenarios import SCENARIO_KEYS
from repro.serve import CandidateStore, decide_one, decisions_digest
from repro.serve.protocol import quantize_costs
from repro.workloads.tpch_queries import TPCH_QUERY_NAMES

GOLDEN = "890df62d12285646bbf3420710e6b7fcff0ab99a1c47a90c01c17934973503fb"

PROBES = 50


def decide_digest(store: CandidateStore) -> str:
    responses = []
    for position, key in enumerate(SCENARIO_KEYS):
        for index, name in enumerate(TPCH_QUERY_NAMES):
            entry = store.entry(name, key)
            rng = np.random.default_rng([position, index])
            factors = rng.uniform(
                0.2, 5.0, size=(PROBES, entry.dimension)
            )
            center = np.asarray(entry.center)
            responses.extend(
                decide_one(entry, quantize_costs(center * row))
                for row in factors
            )
    return decisions_digest(responses)


def test_decide_matches_golden(warm_store):
    assert decide_digest(warm_store) == GOLDEN


if __name__ == "__main__":
    print(decide_digest(CandidateStore(cache=None)))
