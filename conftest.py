"""Root pytest configuration.

Makes the test and benchmark suites runnable straight from a checkout:
``src/`` joins ``sys.path`` if the package is not installed.  (On
environments whose setuptools lacks PEP 660 support, ``pip install -e .``
may fail; ``python setup.py develop`` or this path shim both work.)
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

try:
    import repro  # noqa: F401  (already installed)
except ModuleNotFoundError:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import contextlib
import faulthandler

import pytest

#: Seconds one test (setup, call and teardown together) may run before
#: the whole run is ended with every thread's stack on stderr.  The
#: slowest test or benchmark takes about 10 s on a 2-core machine, so
#: reaching this limit means a hang, not a slow test.
TEST_HANG_LIMIT_S = 300

#: Where a hang dump goes: the real stderr.  pytest's fd capture would
#: swallow a dump written just before the process exits.
_dump_stream = None


def pytest_configure(config):
    global _dump_stream
    capture = config.pluginmanager.getplugin("capturemanager")
    with (capture.global_and_fixture_disabled() if capture is not None
          else contextlib.nullcontext()):
        _dump_stream = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    if _dump_stream is not None:
        _dump_stream.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_HANG_LIMIT_S, exit=True,
                                      file=_dump_stream)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
