"""Building, caching and loading the compiled Leiden sweeps."""

import pytest

from cdgcn import _kernel
from cdgcn.graphs import SpeakerGraph
from cdgcn.leiden import LeidenConfig, leiden
from helpers import clique_pair_graph, modules_after


def test_import_loads_no_kernel():
    loaded = modules_after("import cdgcn")
    assert "cdgcn._kernel" not in loaded
    # numpy may load ctypes itself; cdgcn adds it only with the kernel.
    assert "ctypes" not in loaded or "ctypes" in modules_after("import numpy")


def test_cache_name_follows_the_source(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = _kernel.SOURCE.read_bytes()
    path = _kernel.library_path(source)
    assert path.parent == tmp_path / "cdgcn"
    assert path == _kernel.library_path(source)
    assert path != _kernel.library_path(source + b"\n")


def built_libraries(cache):
    return list((cache / "cdgcn").iterdir())


@pytest.mark.parametrize("recorded_cc", ["installed", "not installed"])
def test_first_use_builds_into_an_empty_cache(request, empty_cache, recorded_cc):
    if recorded_cc == "not installed":
        request.getfixturevalue("no_configured_cc")   # then `cc` builds it
    labels = leiden(clique_pair_graph(4), LeidenConfig(gamma=1.0, seed=0)).labels
    assert labels.tolist() == [0] * 4 + [1] * 4
    # One library, no partial build left behind.
    assert built_libraries(empty_cache) == [_kernel.library_path(_kernel.SOURCE.read_bytes())]


def test_missing_compiler_is_one_line_error(missing_compiler):
    graph = SpeakerGraph(3, [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(OSError, match="^cannot build the Leiden sweeps: C compiler "
                                      "'no-such-cc': .*; C compiler 'cc': ") as caught:
        leiden(graph, LeidenConfig(seed=0))
    assert "\n" not in str(caught.value)
    assert built_libraries(missing_compiler) == []


def test_unwritable_cache_is_one_line_error(empty_cache):
    empty_cache.write_text("a file, not a directory")
    with pytest.raises(OSError, match="cache/cdgcn") as caught:
        leiden(clique_pair_graph(4), LeidenConfig(seed=0))
    assert "\n" not in str(caught.value)
