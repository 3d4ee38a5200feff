import pytest

from affgrav import expansion


@pytest.fixture()
def cold_caches():
    """Empty pipeline caches before the test, as in a fresh process, and
    after it, so a frame built under a patch does not outlive the test."""
    caches = (expansion.build_frame, expansion.build_pipeline)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()
