"""Builds and loads the compiled kernels of `_sweeps.c`.

On first use the library is compiled into $XDG_CACHE_HOME/cdgcn (default
~/.cache/cdgcn; delete it to force a rebuild), named by a hash of source,
flags and platform, via a temporary file renamed into place so concurrent
processes never load a partial one. The compiler is the one Python was built
with or, if that cannot run or fails (conda and standalone builds record
their build machine's), `cc`. A graph's own arrays are passed by address,
checked once per graph by `graphs.Pinned`; arrays made per call pass through
ctypes' dtype and order checks.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sweeps.c")
# -ffp-contract=off: no fused multiply-add, so every float op rounds as in Python.
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


def library_path(source: bytes) -> Path:
    """Cache file of the library built from `source` on this platform."""
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(),
                                     sysconfig.get_platform().encode()])).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "cdgcn"
    return cache / f"sweeps-{key}.so"


def _build(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(suffix=".tmp", dir=target.parent)
    os.close(fd)
    failures = []
    try:
        for compiler in dict.fromkeys(filter(None, [sysconfig.get_config_var("CC"), "cc"])):
            try:
                done = subprocess.run([*shlex.split(compiler), *FLAGS, "-o", partial,
                                       str(SOURCE)], capture_output=True, text=True)
            except OSError as exc:   # the compiler cannot be started
                failures.append(f"C compiler {compiler!r}: {exc.strerror or exc}")
                continue
            if done.returncode == 0:
                os.replace(partial, target)
                return
            failures.append(f"C compiler {compiler!r}: "
                            f"{(done.stderr.strip().splitlines() or ['no output'])[0]}")
        raise OSError("cannot build the compiled kernels: " + "; ".join(failures))
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled kernels, built into the cache first if missing."""
    target = library_path(SOURCE.read_bytes())
    if not target.exists():
        _build(target)
    lib = ctypes.CDLL(str(target))
    idx, real, addr, seed = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_uint32
    ints, reals = (np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
                   for dtype in (np.int64, np.float64))
    graph = [addr] * 4   # SpeakerGraph.rows or .stream, checked once by graphs.Pinned
    # Each kernel but permutation and seal_graph returns a count, or -1 if it
    # lacks scratch; the Leiden kernels -2 or -3 for labels they cannot take.
    for name, restype, argtypes in (
            ("local_move", idx, [idx, *graph, real, real, real, idx, ints, seed]),
            ("refine_partition", idx, [idx, *graph, ints, real, real, real, idx, seed, ints]),
            ("aggregate_graph", idx, [idx, idx, idx, ints, *graph, reals, ints, ints, reals]),
            ("community_sums", idx, [idx, idx, idx, ints, addr, *graph, reals]),   # loops, k, edges
            ("build_graph", idx, [idx, idx, ints, ints, reals, ints, ints, reals]),
            ("complete_graph", idx, [idx, reals, ints, ints, reals]),
            ("seal_graph", None, [idx, *graph, *graph]),   # rows, then stream, filled
            ("permutation", None, [idx, seed, ints])):
        getattr(lib, name).restype, getattr(lib, name).argtypes = restype, argtypes
    return lib
