import pytest

from repro.obs import DECISIONS, PROFILER, PROGRESS


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI artefacts (cache, manifests, history) out of the repo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plan-cache"))
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
    monkeypatch.chdir(tmp_path)


@pytest.fixture(autouse=True)
def _reset_obs_globals():
    """CLI runs mutate process-global observability state; restore it."""
    yield
    PROFILER.disable()
    PROFILER.reset()
    DECISIONS.disable()
    DECISIONS.reset()
    PROGRESS.configure(mode="auto", log_level="warning", stream=None)
