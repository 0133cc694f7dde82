"""Every function the benchmark's tracer hooks by name still exists."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_hooked_name_is_callable():
    # a renamed or deleted hook would silently drop out of the traced metrics
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.HOOKS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"elcov.{layer}"), name, None))
    ]
    assert missing == []
