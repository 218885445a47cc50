"""Every corpus config's written report against the golden table in
``tests/golden/``: QPs and other integers exactly, floats within 1e-9
relative, BD-PSNR within 1e-6 dB. A change that moves an output rewrites
the table with ``tests/golden/corpus.py`` and says so."""

import json
import math

import pytest

from golden.corpus import ROW_FIELDS, TABLE, configs, table_of, written_report

CONFIGS = configs()
GOLDEN = json.loads(TABLE.read_text())


def same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9)
    return type(got) is type(want) and got == want


def test_table_covers_the_corpus():
    assert GOLDEN["fields"] == list(ROW_FIELDS)
    assert {r[0] for r in GOLDEN["rows"]} == set(CONFIGS)
    assert {b[0] for b in GOLDEN["bd_psnr_db"]} == set(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_matches_the_golden_table(name):
    rows, bd = table_of(name, written_report(CONFIGS[name]))
    want_rows = [r for r in GOLDEN["rows"] if r[0] == name]
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        moved = [f for f, g, w in zip(ROW_FIELDS, got, want) if not same(g, w)]
        assert not moved, f"{name} row {want[1:3]} moved in {moved}: {got} != {want}"
    want_bd = {omega: gap for config, omega, gap in GOLDEN["bd_psnr_db"] if config == name}
    got_bd = {omega: gap for _, omega, gap in bd}
    assert got_bd.keys() == want_bd.keys()
    for omega, want in want_bd.items():
        got = got_bd[omega]
        assert (got is None) == (want is None), (omega, got, want)
        if want is not None:
            assert abs(got - want) <= 1e-6, (omega, got, want)
