"""Every span the benchmark's traced run wraps still names a function.

``perfbench/layers.py`` wraps package functions by name, so a rename in
``src/`` would only show as an ``AttributeError`` when ``run.py --trace 1``
starts.  This loads the span table read-only and resolves each name on the
package: a module attribute, or ``Class.method``.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for name, (module_name, attrs) in layers.SPANS.items():
        module = importlib.import_module(f"gpstable.{module_name}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{name}: gpstable.{module_name}.{attr}")
    assert not missing, "unresolved spans:\n" + "\n".join(missing)
