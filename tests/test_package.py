"""Static checks on the package source."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "irs_gbsm"


def unused_imports(source: str, exported: bool) -> list[str]:
    """Names a module imports and never reads.

    ``exported``: the module is a package ``__init__`` whose ``__all__`` is
    every public name, so its public imports are used by being exported.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used and not (exported and not name.startswith("_"))]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    path = SRC / module
    assert unused_imports(path.read_text(), module == "__init__.py") == []


def test_detects_an_unused_import():
    source = "import os\nimport sys as _sys\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert unused_imports(source, exported=False) == ["line 2: _sys", "line 3: tau"]
    assert unused_imports(source, exported=True) == ["line 2: _sys"]


def unset_defaults(module: str, callers: list[str]) -> list[str]:
    """Defaulted parameters of ``module``'s public functions that no call sets.

    A call sets a parameter by keyword or by position; calls are matched by
    the function's name, whether called bare or as an attribute.  A
    parameter no caller sets is a setting the code only appears to have.
    """
    defaults = {}
    for node in ast.parse(module).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            defaults[node.name] = {a.arg: i for i, a in enumerate(args) if i >= first}
            defaults[node.name].update(
                (a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None)
    found = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in defaults:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for param, index in defaults[name].items():
                if param in keywords or index is not None and (
                        starred or index < len(node.args)):
                    found.add((name, param))
    return [f"{name}({param})" for name, params in defaults.items() for param in params
            if (name, param) not in found]


@pytest.mark.parametrize("module", ["stats.py", "assembly.py", "smallscale.py"])
def test_every_default_of_a_statistic_is_set_somewhere(module):
    sources = [p.read_text() for root in (SRC, SRC.parents[1] / "tests")
               for p in sorted(root.glob("*.py"))]
    assert unset_defaults((SRC / module).read_text(), sources) == []


def test_detects_a_default_nobody_sets():
    module = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "def g(x=0):\n    pass\n"
              "def _h(y=0):\n    pass\n")
    callers = ["f(0, 5)\nm.f(0, d=4)\n", "g(*xs)\n"]
    assert unset_defaults(module, callers) == ["f(c)"]
    assert unset_defaults(module, []) == ["f(b)", "f(c)", "f(d)", "g(x)"]


def public_definitions(source: str) -> list[str]:
    """Public names a module defines at top level, and its classes' public methods.

    Top-level names are functions, classes and assignments; a method or
    property of a top-level class is named ``Class.method``.
    """
    names = []
    for node in ast.parse(source).body:
        names.append(getattr(node, "name", None))
        names += [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                  if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return [name for name in names if name and not name.startswith("_")]


def _definitions(tree: ast.Module):
    """(own names, nodes) of each definition of a module.

    A definition is a top-level statement, except that each method of a
    top-level class is one of its own and the rest of the class is another;
    every part of a class owns the class's name.
    """
    for node in tree.body:
        own = {getattr(node, "name", None)} | {
            t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(t, ast.Name)}
        if not isinstance(node, ast.ClassDef):
            yield own, [node]
            continue
        methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
        for method in methods:
            yield own | {method.name}, [method]
        yield own, ([item for item in node.body if item not in methods] + node.bases
                    + node.keywords + node.decorator_list)


def unread(names: list[str], sources: list[str]) -> list[str]:
    """Names that no definition of ``sources`` reads, besides their own.

    A name counts as read where a definition (see :func:`_definitions`)
    loads it, bare or as an attribute.  ``Class.method`` counts as read only
    as an attribute, and not of a module bound by ``import`` (``np.empty``
    reads no ``empty`` method).  Its own definition, imports (which load
    nothing) and strings do not count.
    """
    read, attributes = set(), set()
    for source in sources:
        tree = ast.parse(source)
        modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        for own, nodes in _definitions(tree):
            for sub in (sub for node in nodes for sub in ast.walk(node)):
                if not isinstance(getattr(sub, "ctx", None), ast.Load):
                    continue
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in own:
                    continue
                read.add(name)
                if getattr(getattr(sub, "value", None), "id", None) not in modules:
                    attributes.add(getattr(sub, "attr", None))
    return sorted(name for name in names if (name.rpartition(".")[2] not in attributes
                                             if "." in name else name not in read))


# public names that no program path reads yet, each with the ROADMAP item that
# wires it in or removes it; the list only shrinks
UNWIRED = {
    "VisibilityTensor.matrix": "item 1",
    "apply_steering": "item 3",
    "steering_vector": "item 3",
    "cascade_trial_products": "items 2-3",
    "lag1_autocorrelation": "item 6",
}


def test_every_public_name_has_a_program_path():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    public = [name for source in sources for name in public_definitions(source)]
    assert unread(public, sources) == sorted(UNWIRED)


def test_detects_a_name_no_definition_reads():
    module = ("from .m import imported_only\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "def caller():\n    return mod.called() + Thing.size\n"
              "class Thing:\n    def make(self):\n        return Thing()\n"
              "def called():\n    '''mentioned'''\n    return 1\n"
              "LIMIT = LIMIT + 1\n")
    names = ["recursive", "caller", "Thing", "called", "imported_only", "mentioned", "LIMIT"]
    assert public_definitions(module + "_private = 1\nlimit: int = 2\n") == [
        "recursive", "caller", "Thing", "Thing.make", "called", "LIMIT", "limit"]
    assert unread(names, [module]) == ["LIMIT", "caller", "imported_only", "mentioned",
                                       "recursive"]
    assert unread(names, [module, "total = recursive(3) + LIMIT\n"]) == [
        "caller", "imported_only", "mentioned"]


def test_detects_a_method_no_definition_reads():
    module = ("import numpy as np\n"
              "class Curve:\n"
              "    @property\n    def magnitude(self):\n        return np.abs(self.values)\n"
              "    @classmethod\n    def empty(cls):\n        return cls(np.empty(0))\n"
              "    def rows(self):\n        return self.rows() if self else self.scaled(2)\n"
              "    def scaled(self, k):\n        return Curve(k)\n"
              "    def _hidden(self):\n        return 0\n"
              "def write(curve, magnitude):\n    return magnitude + curve.size\n")
    names = public_definitions(module)
    assert names == ["Curve", "Curve.magnitude", "Curve.empty", "Curve.rows", "Curve.scaled",
                     "write"]
    # a bare name, an attribute of an imported module (np.empty) and the
    # method's own body read no method, and the class's own body does not
    # read the class; another method's body reads a method
    assert unread(names, [module]) == ["Curve", "Curve.empty", "Curve.magnitude",
                                       "Curve.rows", "write"]
    assert unread(names, [module, "def main(c):\n    return c.magnitude, write(c, 0)\n"]) == [
        "Curve", "Curve.empty", "Curve.rows"]


def dense_visibility_readers(source: str) -> list[str]:
    """Top-level definitions, other than ``VisibilityTensor``, that read ``.grid`` or ``.matrix``.

    Those attributes are the dense (m_x, m_y, n_clusters) visibility view,
    96 MB at 128 x 128; program paths read the sparse ``flat`` entries.
    """
    found = []
    for node in ast.parse(source).body:
        if getattr(node, "name", None) == "VisibilityTensor":
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr in ("grid", "matrix")
               and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node)):
            found.append(getattr(node, "name", f"line {node.lineno}"))
    return found


def test_no_program_path_reads_the_dense_visibility_grid():
    for path in sorted(SRC.glob("*.py")):
        assert dense_visibility_readers(path.read_text()) == [], path.name


def test_detects_a_dense_visibility_reader():
    module = ("class VisibilityTensor:\n    def matrix(self):\n        return self.grid\n"
              "def reader(real):\n    return real.visibility.matrix[0]\n"
              "def sparse(real):\n    return real.visibility.flat\n"
              "class Realization:\n    def rays(self):\n        return self.visibility.grid\n"
              "GRID = tensor.grid\n")
    assert dense_visibility_readers(module) == ["reader", "Realization", "line 11"]


def private_imports(source: str, package: str = "irs_gbsm") -> list[str]:
    """Single-underscore names a module imports from another module of the package.

    Covers ``from .m import _x`` and ``from irs_gbsm.m import _x``, and an
    attribute ``m._x`` read from a package module the source imports; dunders
    such as ``__version__`` are public.
    """
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def ours(node):
        return node.level > 0 or (node.module or "").split(".")[0] == package

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and ours(node):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"line {node.lineno}: {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.split(".")[0] == package)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found, key=lambda line: (int(line.split()[1][:-1]), line))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_a_private_name_of_another(module):
    assert private_imports((SRC / module).read_text()) == []


def test_detects_a_private_import():
    module = ("from . import __version__, stats\n"
              "from .smallscale import _tap_blocks, los_phasor\n"
              "from irs_gbsm.clusters import _draw\n"
              "from numpy import _NoValue\n"
              "import irs_gbsm.output as out\n"
              "def f(real):\n    return stats._trial_sub(real), out._ROW_BLOCK, stats.run\n")
    assert private_imports(module) == ["line 2: _tap_blocks", "line 3: _draw",
                                       "line 7: out._ROW_BLOCK", "line 7: stats._trial_sub"]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_counter_leaves_out_blanks_comments_and_docstrings(tmp_path):
    source = ("'''Module doc.\n\nMore.\n'''\n# comment\nimport os\n\n\n"
              "def f(x):\n    \"\"\"One-line doc.\"\"\"\n    # inside\n"
              "    s = \"\"\"not a\ndoc\"\"\"\n    return x  # trailing\n\n\n"
              "class C:\n    '''Doc\n    two'''\n    y = 1\n")
    path = tmp_path / "toy.py"
    path.write_text(source)
    # code: import, def, the two lines of the string statement, return, class, y
    assert load_tool("count_lines").count(path) == (20, 7)


def test_output_comparison_reports_identity_and_the_largest_difference(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("t,x\n0.0,1.0\n")
    (a / "run" / "acf.csv").write_text("dt_s,real,kind\n0.0,1.0,sim\n0.5,0.25,sim\n")
    (b / "run" / "acf.csv").write_text("dt_s,real,kind\n0.0,1.0,sim\n0.5,0.2500001,ana\n")
    (a / "run" / "hz.csv").write_text("spread_hz,zero\n2000.0,0.0\n1000.0,0.0\n")
    (b / "run" / "hz.csv").write_text("spread_hz,zero\n2000.0,-0.0\n1000.5,0.0\n")
    tool = load_tool("compare_outputs")
    assert tool.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the largest |d|, then that over the column's largest |value| on either
    # side; a column of zeros on both sides reads 0
    assert lines[0] == ("run/acf.csv: max |d|: dt_s 0 (0 rel), real 1e-07 (1e-07 rel), "
                        "kind 1 cells")
    assert lines[1] == "run/hz.csv: max |d|: spread_hz 0.5 (0.00025 rel), zero 0 (0 rel)"
    assert lines[2] == "run/same.csv: identical"
    (b / "run" / "same.csv").write_text("t,x\n0.0,1.0\n1.0,2.0\n")
    (b / "run" / "extra.csv").write_text("t\n")
    assert tool.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "run/same.csv: row counts differ: 1 and 2" in out
    assert "run/extra.csv: missing in the first directory" in out


def test_paired_timer_alternates_and_summarizes(capsys):
    tool = load_tool("paired_times")
    assert tool.main(["--pairs", "2", str(ROOT), str(ROOT), "--", "-c", "pass"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 1", "pair 2"]
    assert lines[2].split()[:2] == ["side", "wall_s"]
    assert [line.split()[0] for line in lines[3:5]] == ["base", "change"]
    assert lines[5].startswith("change won: wall_s ") and lines[5].endswith("/2")
    failing = ["-c", "raise SystemExit(3)"]
    assert tool.main(["--pairs", "2", str(ROOT), str(ROOT), "--", *failing]) == 1
    assert "exited with 3" in capsys.readouterr().err
