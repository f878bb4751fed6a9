"""
Shared test setup: every test starts with no signature block records, so a
test that counts or replaces what a record is built from (alexander,
seifert_matrix, _sixth_point) sees the same calls whatever ran before it.
"""

import pytest

import braidcob.signature as signature


@pytest.fixture(autouse=True)
def _cold_block_records():
    signature._kept_record.cache_clear()
    yield
