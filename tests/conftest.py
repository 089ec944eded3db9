import dataclasses

import pytest


@pytest.fixture
def unconverged(monkeypatch):
    """unconverged(module, name) patches module.name, an oracle, so that every
    result it returns reports converged=False with its value unchanged."""
    def patch(module, name):
        oracle = getattr(module, name)

        def wrapped(*args, **kwargs):
            return dataclasses.replace(oracle(*args, **kwargs), converged=False)

        monkeypatch.setattr(module, name, wrapped)
    return patch
