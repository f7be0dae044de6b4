"""The fast entries of the record-digest corpus (record_digests.json).

`python tests/record_digests.py` runs every entry, the slow ones too.
"""

import pytest

import record_digests

FAST = record_digests.load(slow=False)


def test_the_corpus_covers_both_chunk_counts_and_keeps_its_slow_entries():
    entries = record_digests.load()
    assert all({1, 16} <= set(e["chunks"]) for e in entries)
    assert 0 < len(FAST) < len(entries)


@pytest.mark.parametrize("entry", FAST, ids=record_digests.entry_id)
def test_record_section_matches_its_digest(entry):
    assert record_digests.mismatches(entry) == []
