"""The public names of the package resolve."""
import importlib

import pytest

MODULES = ["forms", "models", "poisson", "spectral", "variational", "montecarlo"]


@pytest.mark.parametrize("module", ["exitlab"] + [f"exitlab.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"

