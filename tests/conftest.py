import importlib
import sys

import pytest


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Give the runs of a detection 1, 2 or 3 threads (at most one per
    run), which start even on the small test graphs.  A short switch
    interval makes the threads trade the interpreter lock often, so a result
    that depended on their schedule would show."""
    detect_module = importlib.import_module("listcom.detect")
    monkeypatch.setattr(detect_module, "WORKERS", request.param)
    monkeypatch.setattr(detect_module, "THREAD_POSITIONS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache under ``tmp_path``, with no kernel loaded, so
    the next use builds one there."""
    kernel = importlib.import_module("listcom.kernel")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernel.load.cache_clear()
    try:
        yield tmp_path / "cache" / "listcom"
    finally:
        kernel.load.cache_clear()
