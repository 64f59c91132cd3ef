"""Every name a module lists in ``__all__`` resolves on that module.

A deletion that leaves its name behind in ``__all__`` fails here, not later
as an ``ImportError`` in a star import.
"""

import importlib

import pytest

MODULES = ["memsteer", "memsteer.memory", "memsteer.oracle", "memsteer.envs",
           "memsteer.envs.textgame"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert module.__all__ and missing == []
    assert len(set(module.__all__)) == len(module.__all__)
