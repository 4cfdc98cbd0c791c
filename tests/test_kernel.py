"""Building, caching and loading the compiled kernels, and their ctypes
declarations against the C source."""

import ctypes
import re

import numpy as np
import pytest

from cdgcn import _kernel
from cdgcn.graphs import SpeakerGraph, knn_graph
from cdgcn.leiden import LeidenConfig, leiden
from helpers import clique_pair_graph, modules_after


def test_import_loads_no_kernel():
    loaded = modules_after("import cdgcn")
    assert "cdgcn._kernel" not in loaded
    assert not loaded & {f"cdgcn.{name}" for name in
                         ("leiden", "pipeline", "osd", "scoring", "timeline", "synthetic", "cli")}
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
    # Building any graph needs the kernels, Leiden's input graph included.
    for build in (lambda: leiden(SpeakerGraph(3, [0, 1], [1, 2], [1.0, 1.0]),
                                 LeidenConfig(seed=0)),
                  lambda: knn_graph(np.eye(3), 1)):
        with pytest.raises(OSError, match="^cannot build the compiled kernels: C compiler "
                                          "'no-such-cc': .*; C compiler 'cc': ") as caught:
            build()
        assert "\n" not in str(caught.value)
    assert built_libraries(missing_compiler) == []


def test_unwritable_cache_is_one_line_error(empty_cache):
    empty_cache.write_text("a file, not a directory")
    with pytest.raises(OSError, match="cache/cdgcn") as caught:
        leiden(clique_pair_graph(4), LeidenConfig(seed=0))
    assert "\n" not in str(caught.value)


def test_argtypes_match_every_kernel_signature():
    """ctypes cannot read C prototypes, so a declaration that no longer
    matches its kernel would misread arguments without a word. Every
    non-static function of _sweeps.c is declared, with one argtype per
    parameter."""
    source = _kernel.SOURCE.read_text()
    kernels = re.findall(r"^(?!static\b)\w[\w ]*?[\s*](\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {"local_move", "refine_partition", "aggregate_graph", "climb", "community_sums",
            "seal_graph", "build_graph", "complete_graph", "permutation"} == {
        name for name, _ in kernels}
    lib = _kernel.load()
    for name, parameters in kernels:
        argtypes = getattr(lib, name).argtypes
        assert argtypes is not None, name
        assert len(argtypes) == parameters.count(",") + 1, name


def test_graph_mirrors_the_c_struct():
    """_kernel.Graph lists the C graph's fields in order, pointers as
    pointers."""
    source = _kernel.SOURCE.read_text()
    body = re.search(r"typedef struct \{([^}]*)\} graph;", source).group(1)
    fields = [(name, star == "*") for star, name in re.findall(r"(\*?)(\w+)\s*[,;]", body)]
    assert fields == [(name, kind is ctypes.c_void_p) for name, kind in _kernel.Graph._fields_]
