"""Every name perfbench's tracer wraps exists in ssmean.

``perfbench/tracing.py``'s ``install`` raises on a name that is gone, so a
deleted function would otherwise pass this suite and break only a traced run.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # run_path compiles the source itself and writes no bytecode beside it
    spans = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["SPANS"]
    missing = []
    for module_name, attr in spans:
        owner = importlib.import_module(module_name)
        *cls_name, name = attr.split(".")
        if cls_name:
            # install wraps the method in the class's own __dict__, not an inherited one
            owner = vars(getattr(owner, cls_name[0], object))
            found = callable(owner.get(name))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module_name}:{attr}")
    assert spans and not missing, f"SPANS names what ssmean lacks: {missing}"
