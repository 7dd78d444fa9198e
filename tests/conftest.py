import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process of the test run left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # gives (0, 0) for a running child, (pid, status) for an unreaped one
