"""The benchmark tracer wraps urelnet functions by their names.

``perfbench/tracing.py`` patches every name in its ``TIMED`` and ``COUNTED``
tables, plus ``model.build_model``, and raises ``KeyError`` or
``AttributeError`` on one the package no longer defines. This test resolves
each of them the way ``Tracer._install_function`` does, so a rename fails
here rather than in a traced benchmark run. The tracer module is loaded
from its file and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    names = [("model", "build_model")] + [
        (module_name, qualname)
        for table in (tracing.TIMED, tracing.COUNTED)
        for module_name, qualnames in table.items()
        for qualname in qualnames
    ]
    unresolved = []
    for module_name, qualname in names:
        module = importlib.import_module(f"urelnet.{module_name}")
        try:
            owner, attr = tracing._owner_and_attr(module, qualname)
            function = vars(owner)[attr] if isinstance(owner, type) else getattr(module, attr)
        except (AttributeError, KeyError):
            unresolved.append(f"{module_name}.{qualname}")
            continue
        if not callable(getattr(function, "__func__", function)):
            unresolved.append(f"{module_name}.{qualname}")
    assert len(names) > 30
    assert unresolved == []
