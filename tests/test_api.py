"""The public names of the package load lazily from their home modules.
Which names are public is pinned by the ledger (`tests/test_ledger.py`), so
every export is a visible diff there."""

from __future__ import annotations

import importlib

import pytest

import primetrees


def test_public_names_are_pinned():
    # `__all__`, not `vars()`: the package loads each name on first access
    for name in primetrees.__all__:
        value = getattr(primetrees, name)
        assert value.__module__.startswith("primetrees."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(primetrees.__all__) <= set(dir(primetrees))
    with pytest.raises(AttributeError, match="no_such_name"):
        primetrees.no_such_name
