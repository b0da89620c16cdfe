"""Every case of the checked-in CLI corpus replays byte for byte (see cli_corpus.py)."""

import cli_corpus


def test_cli_corpus_replays_byte_identical():
    cases = cli_corpus.load()
    assert len(cases) > 400
    bad = cli_corpus.mismatches(cases)
    assert not bad, f"{len(bad)} cases differ, first {bad[0][0]['argv']!r}: got {bad[0][1]!r}"
