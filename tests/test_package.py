"""What `import cdgcn` binds: its modules, and load_weights alone of their names."""

import types

import cdgcn
from helpers import modules_after, printed_by


def test_import_binds_load_weights_and_the_modules_it_loads():
    names = printed_by("import cdgcn\n"
                       "print(*(name for name in vars(cdgcn) if not name.startswith('_')))")
    loaded = {name.split(".")[1] for name in modules_after("import cdgcn")
              if name.startswith("cdgcn.")}
    assert set(names.split()) == {"load_weights"} | loaded
    assert loaded == {"gcn", "graphs"}


def test_leiden_is_the_module():
    import cdgcn.leiden as module

    assert isinstance(module, types.ModuleType)
    assert module.__name__ == "cdgcn.leiden"
    assert cdgcn.leiden is module


def test_load_weights_is_the_gcn_one():
    """The benchmark's setup probe calls cdgcn.load_weights."""
    from cdgcn.gcn import load_weights

    assert cdgcn.load_weights is load_weights
