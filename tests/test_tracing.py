"""The span tracer of the benchmark wraps names defined in the package.

``perfbench/tracing.py`` lists the functions and methods it wraps by
module and name. A refactor that removes or moves one of them breaks
``perfbench/run.py --trace 1``; this test fails first.
"""

import importlib.util
from pathlib import Path

import pytest

from lrkf import diagonal, learners

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_wrapped_and_restored(tracing):
    original_update = diagonal.update
    original_observe = learners._BayesianLearner.__dict__["observe"]
    undo = tracing.install(tracing.Tracer())
    try:
        assert tracing.unwrapped_sites() == []
        assert diagonal.update is not original_update
    finally:
        tracing.uninstall(undo)
    assert diagonal.update is original_update
    assert learners._BayesianLearner.__dict__["observe"] is original_observe
