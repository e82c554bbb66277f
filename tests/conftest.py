import pytest

from structlabor import parallel


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes ``forked_map`` and ``split`` see ``k`` CPUs for the rest of the test."""

    def pin(k):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: k)

    return pin


@pytest.fixture(params=[1, 2], ids=lambda k: f"{k}cpu")
def cpus(request, pin_cpus):
    """Runs a test once serially and once with two forked workers."""
    pin_cpus(request.param)
    return request.param
