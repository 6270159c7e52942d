"""The benchmark's per-function figures name functions the tracer can wrap.

perfbench/tracer.py wraps the public functions that each layer module
defines.  A per_layer name "<module>.<function>.<calls|self_s|peak_mb>"
whose function was renamed, made private or moved to another module
records nothing, and a traced benchmark run then fails on the missing key.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FIGURES = ("calls", "self_s", "peak_mb")


def test_per_layer_functions_are_public_in_their_module():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    per_function = [
        name.split(".") for name in names
        if name.count(".") == 2 and name.rsplit(".", 1)[1] in FIGURES
    ]
    assert per_function
    for layer, function, _ in per_function:
        module = importlib.import_module(f"polardirac.{layer}")
        fn = getattr(module, function, None)
        assert not function.startswith("_"), f"{layer}.{function} is private"
        assert inspect.isfunction(fn), f"polardirac.{layer} has no {function}"
        assert fn.__module__ == module.__name__, (
            f"{layer}.{function} is defined in {fn.__module__}"
        )
