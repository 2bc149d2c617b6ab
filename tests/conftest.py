import pytest

from srkd import losses


@pytest.fixture
def walk_workers(request, monkeypatch):
    """Run every `losses.map_in_order` of the test -- the batch-GD
    block-pair walks and the trainer's per-scene k-NN, teacher and
    evaluation passes -- on the class's WALK_WORKERS threads (default 1,
    the serial reference), whatever the block or scene size and the core
    count, so a subclass that sets it to 2 reruns the class's tests
    threaded."""
    workers = getattr(request.cls, "WALK_WORKERS", 1)
    monkeypatch.setattr(losses, "_walk_workers", lambda n: workers)
    return workers


@pytest.fixture
def parallelism(monkeypatch):
    """Pin P, `losses._parallelism` -- the sweep workers of
    `trainer._run_tasks`, and the threads of every `map_in_order` of at
    least 256 rows -- to 1, whatever the core count and the BLAS
    environment. Returns pin(p), which pins it to p instead."""
    def pin(p: int):
        monkeypatch.setattr(losses, "_parallelism", lambda: p)

    pin(1)
    return pin
