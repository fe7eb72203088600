"""The benchmark's tracer must still find every name it rebinds.

perfbench/tracer.py wraps library functions in every truemper module
that binds them.  A refactor that stops binding one of them (say,
cutset stops importing components_masks) makes install() raise, and
only the benchmark run would notice.  This test installs and uninstalls
the tracer over the imported modules; it reads perfbench/ and changes
nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import truemper

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def truemper_modules():
    for info in pkgutil.iter_modules(truemper.__path__):
        importlib.import_module(f"truemper.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "truemper" or name.startswith("truemper."))}


def test_install_binds_every_target_and_uninstall_restores():
    modules = truemper_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        rebound = len(tracer._installed)
    finally:
        tracer.uninstall()
    assert rebound > 0
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys(), name
        changed = [attr for attr, value in before[name].items() if after[attr] is not value]
        assert not changed, (name, changed)
