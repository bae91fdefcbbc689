import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from helpers import eight_strings_dataset  # noqa: E402

from plkb.direct import build_direct_kb  # noqa: E402
from plkb.kb import parse_kb  # noqa: E402
from plkb.tree import build_id3, kb_from_tree  # noqa: E402

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# test cannot pass on one run of a commit and fail on the next.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def strings_ds():
    return eight_strings_dataset()


@pytest.fixture(scope="session")
def strings_tree_kb(strings_ds):
    return kb_from_tree(build_id3(strings_ds), mode="leaves")


@pytest.fixture(scope="session")
def strings_direct_kb(strings_ds):
    return build_direct_kb(strings_ds)


@pytest.fixture(scope="session")
def implication_kb():
    """0.6 (!a | b) together with 0.8 (a): probabilistic modus ponens."""
    return parse_kb("0.600000 !a | b\n0.800000 a")


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance check."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[ACCEPTANCE] {name}: {outcome} ({report.duration:.2f}s)", flush=True)
