import pytest

from srkd import losses


@pytest.fixture
def walk_workers(request, monkeypatch):
    """Run the batch-GD block-pair walks of the test on the class's
    WALK_WORKERS threads (default 1, the serial reference walk), whatever
    the block size and the core count, so a subclass that sets it to 2
    reruns the class's tests on the threaded walk."""
    workers = getattr(request.cls, "WALK_WORKERS", 1)
    monkeypatch.setattr(losses, "_walk_workers", lambda n: workers)
    return workers
