"""Layout guards, read from the source text: modules keep to each other's
public names, no file imports a name it never uses, every private
definition is named somewhere in the library, and only the kernel builds
or takes apart a monomial.  The guards that
import the library check that the benchmark tracer's patch points exist and
are restored, and that the structural route and polynomial division do not
fall back to their costly paths."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ogzkit"
MODULES = sorted(PACKAGE.glob("*.py"))
# these modules import names in order to re-export them
RE_EXPORTS = {"__init__.py", "_ratio.py"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree: ast.Module) -> list:
    """Underscore names this module takes from other ogzkit modules, by
    ``from .m import _x`` or by ``m._x`` on a module it imported."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ogzkit")):
            for alias in node.names:
                if node.module in (None, "ogzkit"):  # a module: from . import _linalg
                    modules[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def unused_imports(tree: ast.Module) -> list:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_read_no_private_name_of_another_module(path):
    assert private_reads(parse(path)) == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in RE_EXPORTS] + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(parse(path)) == []


def test_every_private_definition_is_referenced():
    # a private function or class that nothing in the library names is dead
    # code: no caller outside the package may reach it; a reference inside
    # its own body (recursion) does not count
    defs, uses = [], []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_private(node.name):
                defs.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                uses.append((getattr(node, "id", None) or node.attr, path.name, node.lineno))
    dead = [
        (name, where)
        for name, where, first, last in defs
        if not any(u == name and (f != where or not first <= line <= last) for u, f, line in uses)
    ]
    assert defs and dead == []


# one coefficient format: these layers work on integer numerators and never
# build a rational, and no module converts between the two formats
INTEGER_LAYERS = ("_kernel.py", "_gcd.py", "_linalg.py", "skewops.py", "divdiff.py")


def imported(tree: ast.Module) -> set:
    """Every module and name this module imports, by its own name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
            out.update(a.name for a in node.names)
    return out


def defined(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


@pytest.mark.parametrize("name", INTEGER_LAYERS)
def test_integer_layers_import_no_rational_type(name):
    assert imported(parse(PACKAGE / name)) & {"QQ", "Fraction", "fractions", "_ratio"} == set()


@pytest.mark.parametrize(
    "path", MODULES + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_module_defines_or_imports_clear_den(path):
    tree = parse(path)
    assert "clear_den" not in imported(tree) | defined(tree)


# one monomial format: a monomial is the kernel's int, and only _kernel.py
# knows its layout; no other module builds or takes one apart by hand, and
# the tuple format's conversions stay deleted
BY_HAND = {
    "a zero exponent tuple": r"\(0,\)\s*\*",
    "an exponent tuple built by map": r"tuple\(map\(",
    "an exponent list of the ring's width": r"\[0\]\s*\*\s*[\w.]*nvars",
    "the field width": r"\bFIELD_BITS\b|\b_W\b",
    "a shift into a field": r"<<",
}
SECOND_FORMAT = {"grlex_key", "p_addmul_packed", "_pack", "_product", "_MonomialTable", "_width"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_kernel.py"], ids=lambda p: p.name)
def test_only_the_kernel_builds_or_takes_apart_a_monomial(path):
    text = path.read_text(encoding="utf-8")
    assert [what for what, pattern in BY_HAND.items() if re.search(pattern, text)] == []


def test_the_tuple_format_conversions_stay_deleted():
    names = set()
    for path in MODULES:
        tree = parse(path)
        names |= defined(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert names & SECOND_FORMAT == set()


def test_tracer_patch_points_exist_and_are_restored():
    # perfbench/tracer.py patches names through each class's and module's own
    # __dict__; a renamed patched name must fail here, not in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        saved = list(t._saved)
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in saved)
    finally:
        t.remove()
    assert saved
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in saved)


def test_structural_route_pushes_nothing_symbolically_once_warm(monkeypatch):
    # the structural route works at the point: even the first, cold pass
    # conjugates nothing in the nil-Hecke algebra, and once that pass has
    # filled the push tables of the ring, every query on a fresh window of
    # that ring makes no symbolic push through a word and takes no polynomial
    # gcd
    from ogzkit import EvalPoint, ModuleWindow, NilHecke, Polynomial, WindowLeakage

    point = EvalPoint.make((3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)})
    gens = [("raising", 1), ("lowering", 1)]

    def every_query(w):
        out = {}
        for gen in gens + w.multiplier_gens():
            for b in range(len(w.basis)):
                try:
                    out[(gen, b)] = w.act_structural(gen, b)
                except WindowLeakage:
                    pass
        return out

    calls = []

    def count(owner, attr):
        raw = getattr(owner, attr)

        def counted(*args, raw=raw, attr=attr):
            calls.append(attr)
            return raw(*args)

        monkeypatch.setattr(owner, attr, counted)

    for attr in ("conjugated", "pair_expand"):
        count(NilHecke, attr)
    first = every_query(ModuleWindow(point, 1))
    assert len(first) > 100 and calls == []
    for owner, attr in ((NilHecke, "mul_right_fun"), (Polynomial, "gcd")):
        count(owner, attr)
    assert every_query(ModuleWindow(point, 1)) == first
    assert calls == []


def test_division_neither_scans_nor_copies_the_running_dividend(monkeypatch):
    # heap division: one p_lead, on the divisor, and no p_sub copy of the
    # dividend per quotient term
    from ogzkit import _kernel as K

    b = {K.pack(m, 3): c for m, c in {(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 1, (0, 0, 0): 5}.items()}
    q = {K.pack((i, j, k), 3): (i + 2 * j - k) or 1 for i in range(7) for j in range(7) for k in range(5)}
    a = K.p_mul(q, b)
    calls = []
    for name in ("p_lead", "p_sub"):
        raw = getattr(K, name)

        def counted(*args, raw=raw, name=name):
            calls.append(name)
            return raw(*args)

        monkeypatch.setattr(K, name, counted)
    assert len(a) >= 200
    assert K.p_divmod(a, b) == (q, {})
    assert calls.count("p_lead") <= 1 and "p_sub" not in calls
