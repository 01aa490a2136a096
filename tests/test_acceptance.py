"""End-to-end acceptance battery: one test per numbered criterion.

All criteria share one seeded instance pool and the battery takes about
15 seconds, so it runs exactly once per session; each test then prints
the verdict line of its criterion and asserts it.
"""

import pytest

from altproj.acceptance import criterion_ids, run_all

_IDS = criterion_ids()


@pytest.fixture(scope="session")
def battery():
    return {res.cid: res for res in run_all()}


def test_registry_is_complete():
    assert tuple(_IDS) == tuple(range(1, 12))


@pytest.mark.parametrize("cid", _IDS, ids=[f"{cid:02d}" for cid in _IDS])
def test_criterion(battery, cid):
    res = battery[cid]
    print(res.line())
    assert res.passed, res.line()
