import hypothesis
import pytest

from helpers import load_repo_file

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def bench_families():
    """The benchmark's seeded text families, loaded from `bench/families.py`."""
    return load_repo_file("bench_families", "bench", "families.py")
