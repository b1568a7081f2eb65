"""The package's public surface, and the names that perfbench/ binds in it."""

import ast
import importlib
from pathlib import Path

import bidisk


def test_every_export_has_a_docstring():
    missing = []
    for name in bidisk.__all__:
        obj = getattr(bidisk, name)
        if not callable(obj):
            continue
        doc = obj.__doc__ or ""
        # a dataclass without a docstring gets its signature as one
        if not doc.strip() or doc.startswith(f"{name}("):
            missing.append(name)
    assert missing == []


# the one binding of perfbench/ that is known not to exist any more
MISSING_BENCHMARK_BINDINGS = {"spectral._pdf_batch"}


def _benchmark_bindings() -> set[str]:
    """module.name of every bidisk name that perfbench/tracer.py wraps
    (PRIVATE, METHODS, the keys of its counter hooks) and of every spectral.*
    that perfbench/fit.py calls, read from their source without importing
    them."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = set()
    tracer = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    for node in tracer.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("PRIVATE", "METHODS"):
            value = ast.literal_eval(node.value)
            if isinstance(value, dict):
                names |= {f"{mod}.{name}" for mod, group in value.items() for name in group}
            else:
                names |= {".".join(entry) for entry in value}
        elif isinstance(node, ast.FunctionDef) and node.name == "_counter_hooks":
            hooks = node.body[-1].value
            names |= {ast.literal_eval(key) for key in hooks.keys}
    fit = ast.parse((bench / "fit.py").read_text(encoding="utf-8"))
    for node in ast.walk(fit):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spectral":
            names.add(f"spectral.{node.attr}")
    return names


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"bidisk.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_bindings_exist():
    names = _benchmark_bindings()
    assert "spectral.ReweightedDistribution.cdf" in names and "spectral.mc_sample" in names
    assert {n for n in names if not _resolves(n)} == MISSING_BENCHMARK_BINDINGS
