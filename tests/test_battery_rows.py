"""``scripts/battery_rows.py`` charges a time to every row of the battery
and to each brute-force table it builds."""

import importlib.util
from pathlib import Path

from gpstable.algebra import parse_algebra
from gpstable.oracle import verify_algebra

ROOT = Path(__file__).resolve().parent.parent


def test_names_every_row_on_one_document():
    spec = importlib.util.spec_from_file_location("battery_rows", ROOT / "scripts" / "battery_rows.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    doc = (ROOT / "fixtures" / "lambda_star.json").read_text()
    *lines, parse, whole = script.report([doc], 1)
    tables = [line.split(None, 1)[1] for line in lines if line.endswith(" (table)")]
    # in the order the battery builds them
    assert tables == [
        "bf_perfect_pairs (table)",
        "bf_overlap_table (table)",
        "bf_stable_hom_table (table)",
    ]
    rows = [line for line in lines if not line.endswith(" (table)")]
    named = [name for line in rows for name in line.split(None, 1)[1].split(" / ")]
    assert len(named) == len(set(named))
    assert set(named) == {c.name for c in verify_algebra(parse_algebra(doc))}
    assert parse.endswith("  parse") and whole.endswith("  whole operation")
