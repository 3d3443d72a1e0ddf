"""The names the benchmark's tracer patches on the library stay there.

perfbench/tracer.py wraps library names on the modules that use them (see
its installed()). A later cleanup that drops one of them from its module
would break the benchmark's traced run with an AttributeError, though no
library call needs the name; this test fails first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_names_the_library_has():
    tracer = _load_tracer()
    modules = [importlib.import_module(f"mecusum.{name}")
               for name in ("calibrate", "metrics", "simulate")]
    before = [dict(vars(module)) for module in modules]
    with tracer.installed(tracer.Tracer()):  # an AttributeError names a missing one
        patched = [name for module, was in zip(modules, before)
                   for name, value in vars(module).items() if was.get(name) is not value]
    assert patched  # the tracer replaced names for the pass
    assert [dict(vars(module)) for module in modules] == before  # and put them back
