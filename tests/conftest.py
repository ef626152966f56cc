import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

try:
    import regforge  # noqa: F401
except ImportError:
    sys.path.insert(0, str(SRC))

# When a hypothesis test fails, hypothesis's report hook imports libcst, which
# uses the deprecated mypy_extensions.TypedDict. Under a test's
# filterwarnings("error") mark that DeprecationWarning escapes the hook as an
# INTERNALERROR and ends the session. Filters from marks on the session node
# are applied after those of the test, its class and its module, so this one
# takes precedence over their "error" for this warning alone.
TYPEDDICT_DEPRECATION = r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(session):
    session.add_marker(pytest.mark.filterwarnings(TYPEDDICT_DEPRECATION))
