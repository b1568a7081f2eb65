"""The package's public surface, and the names that perfbench/ binds in it."""

import ast
import contextlib
import importlib
import io
import inspect
import re
import sys
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


BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the one binding of perfbench/ that is known not to exist any more
MISSING_BENCHMARK_BINDINGS = {"spectral._pdf_batch"}


def _benchmark_bindings() -> set[str]:
    """module.name of every bidisk name that perfbench/tracer.py wraps
    (PRIVATE, METHODS, the keys of its counter hooks) and of every spectral.*
    that perfbench/fit.py calls, read from their source without importing
    them."""
    names = set()
    tracer = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
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
    fit = ast.parse((BENCH / "fit.py").read_text(encoding="utf-8"))
    for node in ast.walk(fit):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spectral":
            names.add(f"spectral.{node.attr}")
    return names


def _layer_spans() -> set[str]:
    """module.function of every span whose calls or times
    perfbench/layers.py's pass_metrics reads, with verify.check_<name> for
    each of its CHECKS, read from its source without importing it."""
    layers = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    checks = next(
        ast.literal_eval(node.value)
        for node in layers.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "CHECKS"
    )
    metrics = next(
        node for node in layers.body if isinstance(node, ast.FunctionDef) and node.name == "pass_metrics"
    )
    spans = set()
    for node in ast.walk(metrics):
        func = getattr(node, "func", None)
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and getattr(func.value, "id", None) in ("calls", "incl", "own")
        ):
            continue
        key = node.args[0]
        if isinstance(key, ast.Constant):
            spans.add(key.value)
        elif isinstance(key, ast.JoinedStr):
            # f"verify.check_{c}" for c in CHECKS
            prefix, _ = key.values
            spans |= {prefix.value + c for c in checks}
    return spans


def _defined_in_its_module(dotted: str) -> bool:
    """Whether module.function (or module.Class.method) names a function
    defined under that name in bidisk.module: the tracer wraps no other."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"bidisk.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    if not inspect.isfunction(obj):
        return False
    return (obj.__module__, obj.__name__) == (f"bidisk.{module}", attrs[-1])


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
    # a moved or renamed function would leave its span empty; the tracer
    # names adaptive's integrand spectral.integrand itself
    spans = _layer_spans() - {"spectral.integrand"}
    assert {"spectral.discrepancy_ledger", "cli.read_spectrum_csv", "verify.check_psh_curve_positivity"} <= spans
    assert {s for s in spans if not _defined_in_its_module(s)} == set()


SRC = Path(__file__).resolve().parents[1] / "src" / "bidisk"


def test_src_imports_only_the_standard_library_and_its_dependencies():
    """Every import under src/bidisk names the standard library, a runtime
    dependency of pyproject.toml (numpy alone) or bidisk itself."""
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    dependencies = set(re.findall(r'"([\w.-]+)', listed))
    assert dependencies == {"numpy"}
    allowed = set(sys.stdlib_module_names) | dependencies | {"bidisk"}
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {top}" for top in tops if top not in allowed]
    assert outside == []


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines()[0].startswith("elliptic-positive 1.8648")
