"""Keep hypothesis's storage out of the checkout.

The property tests run derandomized with no example database, but
hypothesis still caches the constants it reads from the code under test
(already while collecting) in its storage directory, `.hypothesis/` in the
working directory by default.  Each pytest run points that directory at a
temporary one of its own and removes it at the end.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.mkdtemp(prefix="hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_storage)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_storage, ignore_errors=True)
