"""The mutant list's anchor texts each occur once in the source; the
mutants themselves run only in CI, by ``python tests/mutants.py``."""

from mutants import misplaced_anchors


def test_each_mutant_anchor_occurs_once():
    assert misplaced_anchors() == []
