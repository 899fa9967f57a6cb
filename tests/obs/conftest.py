import pytest

from repro.obs import DECISIONS, METRICS, PROFILER, TRACER


@pytest.fixture(autouse=True)
def _fresh_obs():
    """Each test starts from empty registries and disabled samplers."""

    def clean():
        METRICS.reset()
        TRACER.reset()
        TRACER.enabled = False
        PROFILER.disable()
        PROFILER.reset()
        DECISIONS.disable()
        DECISIONS.reset()

    clean()
    yield
    clean()
