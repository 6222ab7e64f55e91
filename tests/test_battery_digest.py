"""The oracle battery's rows on the fixed family of
``scripts/battery_digest.py`` are pinned.

A change that alters any row's name, verdict or failure detail, or adds or
drops a row, moves the digest; such a change updates the pin here in the
same commit as ``tests/golden_cli.json``.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "battery_digest.py"

DIGEST = "378bd5c5140267a6b04f428700c0ab9461d67a8edcf37636500124b83940c803"
ROWS = 4490


def test_battery_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("battery_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.battery_digest() == (DIGEST, ROWS, 0)
