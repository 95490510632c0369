"""The benchmark in ``perfbench/`` stays runnable: every name it imports
from ``repro`` resolves, and the triple index has what it reads. A change
under ``src/`` that breaks either fails here instead of in a benchmark run."""
import ast
import importlib
from pathlib import Path

from pyspark.sql import DataFrame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` for each ``from repro… import name`` and
    ``(file, module, None)`` for each ``import repro…`` in ``perfbench/``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
    return found


def test_perfbench_repro_imports_resolve():
    imports = _repro_imports()
    assert imports, "perfbench imports nothing from repro: has it moved?"
    missing = []
    for file, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError as e:
            missing.append(f"{file}: {module} ({e})")
            continue
        if name is not None and not hasattr(mod, name):
            try:  # ``from package import submodule``
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{file}: {module}.{name}")
    assert not missing, missing


def test_index_has_what_perfbench_reads(mag_index):
    assert isinstance(mag_index.by_s, DataFrame) and isinstance(mag_index.by_o, DataFrame)
    assert callable(mag_index.unpersist)
