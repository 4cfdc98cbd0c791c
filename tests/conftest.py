import sysconfig

import numpy as np
import pytest
from hypothesis import settings

from cdgcn import _kernel
from cdgcn.gcn import GcnWeights, train
from cdgcn.synthetic import linkage_training_batches, make_overlap_session, make_session

settings.register_profile("cdgcn", max_examples=40, deadline=None)
settings.load_profile("cdgcn")


@pytest.fixture(scope="session")
def trained_weights():
    """Linkage weights trained on small synthetic sessions (shared).

    The corpus mixes orthogonal multi-speaker sessions, two-speaker
    sessions with adjacent mean directions (negatives at cosine 0.2-0.35),
    and overlapped sessions, so the predictor sees the same kinds of
    sub-graphs the tests evaluate on.
    """
    batches = []
    for seed in (201, 202):
        sess = make_session(num_speakers=4, segments_per_speaker=15, dim=16, seed=seed)
        batches += linkage_training_batches(sess, k=40)
    for seed, cosine in ((203, 0.2), (204, 0.35)):
        sess = make_session(num_speakers=2, segments_per_speaker=15, dim=16,
                            seed=seed, mean_cosine=cosine)
        batches += linkage_training_batches(sess, k=25)
    for seed in (205, 206):
        overlap = make_overlap_session(dim=16, seed=seed)
        batches += linkage_training_batches(overlap, k=45)
    return train(batches, init=GcnWeights.glorot(16, seed=11), lr=0.5, epochs=150)


@pytest.fixture(scope="session")
def four_speaker_session():
    return make_session(num_speakers=4, segments_per_speaker=50, dim=16,
                        seed=101, file_id="e2e")


@pytest.fixture(scope="session")
def overlap_session():
    return make_overlap_session(solo_seconds=24.0, overlap_seconds=12.0, dim=16,
                                seed=301, file_id="ov")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """An empty library cache; the compiled kernels are unloaded before
    and after."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernel.load.cache_clear()
    yield tmp_path / "cache"
    _kernel.load.cache_clear()


@pytest.fixture
def no_configured_cc(monkeypatch):
    """Python's recorded C compiler is one that does not exist."""
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-cc" if name == "CC" else config_var(name))


@pytest.fixture
def missing_compiler(monkeypatch, tmp_path, empty_cache, no_configured_cc):
    """An empty library cache, no recorded C compiler and no `cc` either."""
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    return empty_cache
