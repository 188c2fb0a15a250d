"""The pinned output digests of tests/digests.py, at the default seed."""

from __future__ import annotations

import digests


def test_group_digests_match_the_golden_file():
    assert digests.digests() == digests.golden()
