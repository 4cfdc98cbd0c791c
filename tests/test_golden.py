"""Frozen RTTM output of every pipeline mode on one small fixed session.

The overlapped two-speaker fixture at k=35 and gamma=1.2 splits into
several communities, and each mode gives a different RTTM, so the hashes
pin graph construction, the GCN refinement, Leiden's tie-breaks and the
overlap labels at once.

The weights the shared fixture trains are pinned as well, so a change to
training arithmetic shows here and not only where CI regenerates
perfbench/weights.gcnw.

A refactor that is meant to leave behaviour alone must leave these hashes
alone. If a change alters output on purpose, update the hash and say why
in CHANGES.md.
"""

import hashlib
import time

import pytest

from cdgcn.gcn import save_weights
from cdgcn.pipeline import MODES, PipelineConfig, run_pipeline
from cdgcn.timeline import write_rttm

GOLDEN_SHA256 = {
    "raw_leiden": "4db3bf1b71c86ec89fa0d50870f15a84cc160be32e0816006ba99490b8eec654",
    "knn_leiden": "e011a039a56a1b6525c40517162a8938e97671a49bd53886a0af6066907b9599",
    "cdgcn_no_osd": "c3ea948dbb10efdfdefd987e32a5ce5de2c1423f591ee44ea953bb8b7a675bae",
    "cdgcn": "facb1409eb5e5cc8d9f4e136f96b1ed6fa51988560cc8479bcfa026193e84700",
}
TRAINED_WEIGHTS_SHA256 = "36cf1f21853415456fd0a5af5725f01d556a450e7843c53e49421fa4dc0ec946"


@pytest.mark.parametrize("mode", MODES)
def test_rttm_matches_golden_hash(mode, overlap_session, trained_weights):
    session = overlap_session
    started = time.perf_counter()
    _, records = run_pipeline(session.embeddings, mode, weights=trained_weights,
                              mask=session.overlap_mask,
                              config=PipelineConfig(knn_k=35, gamma=1.2, seed=0),
                              vad_regions=session.vad_regions, file_id=session.file_id)
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(write_rttm(records).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[mode]
    assert elapsed < 2.0


def test_trained_weights_match_golden_hash(trained_weights):
    digest = hashlib.sha256(save_weights(trained_weights)).hexdigest()
    assert digest == TRAINED_WEIGHTS_SHA256
