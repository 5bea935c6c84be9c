import importlib.util
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def bench_families():
    """The benchmark's seeded text families, loaded from `bench/families.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
