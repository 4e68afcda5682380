import contextlib
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def time_budget():
    """time_budget(seconds) is a context manager that raises TimeoutError
    when its block runs longer, so a regression fails instead of hanging."""

    @contextlib.contextmanager
    def budget(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"over the {seconds} s budget")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return budget
