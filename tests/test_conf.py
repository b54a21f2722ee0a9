import ast
import builtins
import inspect
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import occsim
from occsim.conf import number_text, read_step_values, reading, write_lines
from occsim.distributions import EmpiricalDistribution

# Signed zeros, subnormals, the extreme exponents and the non-finite values.
EDGES = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, -1e-300, 1e300, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan, 0.1, 1.0]


@given(
    pool=st.lists(st.floats() | st.sampled_from(EDGES), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=12, max_size=12),
    rows=st.integers(1, 4),
)
@example(pool=[0.0, -0.0], picks=[0, 1] * 6, rows=3)
@example(pool=[-0.0, 0.0, 5e-324, -5e-324], picks=[0, 1, 2, 3] * 3, rows=2)
def test_number_text_is_12g_of_each_value(pool, picks, rows):
    # picks index the pool, so values repeat; the transpose is a
    # non-contiguous view of the same values
    values = np.array([pool[i % len(pool)] for i in picks[: rows * 3]]).reshape(rows, 3)
    for view in (values, values.T, values.ravel()):
        want = np.vectorize(lambda v: f"{v:.12g}", otypes=[object])(view).tolist()
        assert number_text(view) == want


def test_number_text_keeps_shape_of_empty_and_nested_input():
    assert number_text(np.empty(0)) == []
    assert number_text([[1, 0.5], [-0.0, 2e-7]]) == [["1", "0.5"], ["-0", "2e-07"]]


def test_write_lines_ends_every_line_in_lf(tmp_path):
    path = tmp_path / "a.txt"
    write_lines(path, ["a,1", "", "b"])
    assert path.read_bytes() == b"a,1\n\nb\n"


def test_only_conf_prints_model_numbers_and_writes_text():
    # number_text is the one place that prints a model number, and
    # write_lines the one that writes a line-based text file
    src = Path(occsim.__file__).parent
    found = [
        f"{path.name}: {needle}"
        for path in sorted(src.glob("*.py"))
        if path.name != "conf.py"
        for needle in (".12g", "write_text(")
        if needle in path.read_text()
    ]
    assert found == []


def _exception_classes(src: Path) -> list[str]:
    """`module.Class` of every class in `src` that derives, by name, from a
    built-in exception or from another class found here."""
    bases = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [b.id if isinstance(b, ast.Name) else ast.unparse(b) for b in node.bases]
                bases[node.name] = (path.stem, names)
    builtin = {name for name, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    found: set[str] = set()
    while True:
        more = {c for c, (_, names) in bases.items() if c not in found and set(names) & (builtin | found)}
        if not more:
            return sorted(f"{bases[c][0]}.{c}" for c in found)
        found |= more


def test_occsim_and_stage_errors_are_the_only_exception_classes():
    assert _exception_classes(Path(occsim.__file__).parent) == ["conf.OccsimError", "pipeline.StageError"]


def _matrix_products(src: Path) -> list[str]:
    """`module.function: expression` of every `@`, `dot` and `matmul` in src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                product |= isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("dot", "matmul")
                if product:
                    found.append(f"{path.stem}.{func.name}: {ast.unparse(node)}")
    return found


def test_no_matrix_product_reaches_an_artifact():
    """BLAS sums in an order of its own choosing, and its first calls in a
    process can be slow (ROADMAP item 7).  The two products left are exact
    or unwritten: k-modes' objective feeds only an assertion, and the
    sequence writer's token index is an integer product."""
    assert _matrix_products(Path(occsim.__file__).parent) == [
        "clustering.kmodes: w @ np.count_nonzero(X != modes[labels], axis=1)",
        "diary_ingest.write_sequences: block['states'].reshape(len(block), -1, 4) @ _RUN_PLACES",
    ]


def test_readers_take_only_a_path():
    for reader in (reading, read_step_values, EmpiricalDistribution.read):
        assert list(inspect.signature(reader).parameters) == ["path"], reader


def test_package_root_loads_nothing_and_each_module_imports_alone():
    # each module is imported with every occsim module unloaded, so an import
    # cycle, or a module that works only once another has loaded, shows here
    src = Path(occsim.__file__).parent
    names = sorted(p.stem for p in src.glob("*.py") if not p.stem.startswith("__"))
    code = (
        f"import importlib, sys; sys.path.insert(0, {str(src.parent)!r})\n"
        "import occsim\n"
        "print(sorted(m for m in sys.modules if m.startswith('occsim.')))\n"
        f"for name in {names!r}:\n"
        "    for m in [m for m in sys.modules if m.startswith('occsim.')]:\n"
        "        del sys.modules[m]\n"
        "    importlib.import_module('occsim.' + name)\n"
        "    print(name)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.split("\n", 1)[0] == "[]", out.stdout
    assert out.stdout.split()[1:] == names, out.stderr
