"""The check the worker tests make after a run: no child process is left."""

import os

import pytest


def assert_no_child_left():
    """Fail if this process has a child, running or exited and unreaped:
    os.waitpid(-1, WNOHANG) raises ChildProcessError only when there is none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
