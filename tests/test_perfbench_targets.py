"""Every entry point the per-layer tracer wraps still exists.

``perfbench/layers.py`` names the functions and methods it times by
module, owner and attribute.  A rename in the program would otherwise
surface only when a traced perfbench run tries to install its wrappers.
The module is loaded from its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module.TARGETS


TARGETS = _load_targets()


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize(
    "layer, module_name, owner_name, attr",
    TARGETS,
    ids=[".".join(filter(None, t[1:])) for t in TARGETS],
)
def test_target_resolves(layer, module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(getattr(owner, attr))
