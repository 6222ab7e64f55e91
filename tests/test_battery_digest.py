"""The oracle battery's rows on the fixed family of
``scripts/battery_digest.py`` are pinned.

A change that alters any row's name, verdict or failure detail, or adds or
drops a row, moves the digest; such a change updates the pin here in the
same commit as ``tests/golden_cli.json``.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "battery_digest.py"

DIGEST = "9c685105d0c9086755e306d18695f04138c4506d19c8583932e4250fc5460d03"
ROWS = 4184


def test_battery_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("battery_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.battery_digest() == (DIGEST, ROWS, 0)
