import ast
import builtins
import inspect
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import occsim
from occsim.conf import number_rows, number_text, reading, write_lines
from occsim.distributions import EmpiricalDistribution
from occsim.markov_train import read_model_file
from occsim.schedule_io import read_step_values
from tests.helpers import row_loop_number_rows

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


@settings(derandomize=True, database=None, max_examples=400)
@given(
    st.lists(st.lists(st.sampled_from([*"0123456789+-eE._ naIFy\t\x00٣\u00a0", "inf", "1e309"]), max_size=6).map("".join), min_size=1),
    st.integers(1, 3),
)
@example(["1_0,2", "3,4"], 2)
@example(["1,2", "3"], 2)
@example([], 3)
def test_number_rows_reads_what_the_row_loop_reads(fields, width):
    """Model, bundle and schedule rows read as Python's float reads them a
    line at a time: `number_rows` gives the row loop's values to the bit, or
    raises its message with `lines.at` on its line; an empty body is (0, width)."""
    rows = [",".join(fields[i : i + width]).strip() for i in range(0, len(fields), width)]
    numbered = [(n, row) for n, row in enumerate(rows, start=3) if row]  # as `Lines` gives them
    lines = SimpleNamespace(at=1)
    want = row_loop_number_rows(numbered, width)
    try:
        values = number_rows(lines, numbered, width)
    except ValueError as exc:
        assert (lines.at, str(exc)) == want
    else:
        assert values.shape == want.shape == (len(numbered), width)
        assert values.tobytes() == want.tobytes()
        assert lines.at == 1


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


def test_only_conf_loops_over_lines_at():
    # conf.number_rows is the one row loop that names a bad line: no other
    # module has a `for` loop whose target sets a `Lines.at`
    src = Path(occsim.__file__).parent
    found = [
        f"{path.name}: {ast.unparse(node.target)}"
        for path in sorted(src.glob("*.py"))
        if path.name != "conf.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.For, ast.comprehension))
        and any(isinstance(t, ast.Attribute) and t.attr == "at" for t in ast.walk(node.target))
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
    process can be slow (ROADMAP item 7).  The one product left is exact:
    the token index of the one sequence encoder, which the writer and the
    reader's check share, is an integer product.  k-modes scores its
    objective from the distances its assignment already measured."""
    assert _matrix_products(Path(occsim.__file__).parent) == [
        "diary_ingest._sequence_bodies: states.reshape(len(states), -1, 4) @ _RUN_PLACES",
    ]


def test_clustering_draws_no_random_number():
    """k-modes starts from density-based modes and silhouette scores every
    row, so the cluster stage needs no seed: clustering imports neither
    `streams` nor `numpy.random`, nor reaches `np.random`."""
    names = set()
    for node in ast.walk(ast.parse((Path(occsim.__file__).parent / "clustering.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(".".join(filter(None, [node.module, a.name])) for a in node.names)}
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            names.add(ast.unparse(node))
    assert names, "no import found"
    assert not names & {"streams", "numpy.random", "np.random"}, names


def test_walk_days_has_one_step_loop():
    """One chain walker: approaches 1, 2 and 3 step through the same loop, a
    walk without holds being the hold walk in which nothing holds."""
    module = ast.parse((Path(occsim.__file__).parent / "occupant_sim.py").read_text())
    walk = next(n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "walk_days")
    loops = [n for n in ast.walk(walk) if isinstance(n, (ast.For, ast.While))]
    assert [f"{ast.unparse(n.target)} in {ast.unparse(n.iter)}" for n in loops] == ["t in range(n_steps)"]


def test_estimate_tpm_counts_through_state_counts():
    """One weighted step counter: `estimate_tpm` has no step loop of its own
    and takes its initial and transition counts from `state_counts`."""
    module = ast.parse((Path(occsim.__file__).parent / "markov_train.py").read_text())
    estimate = next(n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "estimate_tpm")
    nodes = list(ast.walk(estimate))
    assert not [ast.unparse(n) for n in nodes if isinstance(n, (ast.For, ast.While))]
    assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "state_counts" for n in nodes)


def test_cli_import_loads_no_hash_module():
    """The entropy seed comes from `os.urandom`, so no occsim command loads
    `secrets`, nor the `hashlib` and OpenSSL modules that it imports."""
    src = Path(occsim.__file__).parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import occsim.cli\n"
        "print(sorted({'secrets', 'hashlib'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_one_function_level_import():
    """Modules import at their top, so an import cycle shows when a module
    loads.  The one import inside a function keeps `synth` out of
    `import occsim.cli`, which every command pays for."""
    found = [
        f"{path.stem}.{func.name}: {ast.unparse(node)}"
        for path in sorted(Path(occsim.__file__).parent.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == ["cli._cmd_synth: from .synth import write_input_tree"]


def test_readers_take_only_a_path():
    for reader in (reading, read_step_values, EmpiricalDistribution.read, read_model_file):
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
