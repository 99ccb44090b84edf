"""Fixtures shared by the test modules."""

import pytest

from tmdkit import detector


@pytest.fixture
def stage_builds(monkeypatch):
    """Count the occupation and loss stages built for detector models while a test runs."""
    counts = {"convolution_matrix": 0, "loss_matrix": 0}
    for name in counts:
        build = getattr(detector, name)

        def counted(*args, _name=name, _build=build):
            counts[_name] += 1
            return _build(*args)

        monkeypatch.setattr(detector, name, counted)
    return counts
