import importlib
import sys

import pytest


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Step detections on 1, 2 or 3 worker threads, which start even on the
    small test graphs.  A short switch interval makes the threads trade the
    interpreter lock often, so a lost update to the shared queue or wait
    counts shows as a wrong result or a hang."""
    detect_module = importlib.import_module("listcom.detect")
    monkeypatch.setattr(detect_module, "WORKERS", request.param)
    monkeypatch.setattr(detect_module, "WORKER_POSITIONS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
