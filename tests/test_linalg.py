"""Exact linear algebra (the integer echelon), and AST rules over all of src."""

import ast
import collections
import importlib
import inspect
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from normsum import linalg as la


def fraction_rank(rows) -> int:
    M = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, len(M)):
            f = M[i][c] / M[r][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_echelon_tracks_rank(d):
    rng = random.Random(d)
    for _ in range(40):
        ech = la.IntegerEchelon()
        seen = []
        # small entries and repeated multiples make dependent vectors common
        for _ in range(2 * d):
            if seen and rng.random() < 0.4:
                a, b = rng.sample(seen + seen, 2)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                v = [s * x + t * y for x, y in zip(a, b)]
            else:
                v = [rng.randint(-2, 2) for _ in range(d)]
            grew = ech.add(v)
            assert grew == (fraction_rank(seen + [v]) > fraction_rank(seen))
            seen.append(v)
            assert len(ech.rows) == fraction_rank(seen)
            pivots = [c for c, _ in ech.rows]
            for k, (c, row) in enumerate(ech.rows):
                assert math.gcd(*row) == 1
                assert row[c] != 0
                assert all(row[c2] == 0 for c2 in pivots[:k])


def test_echelon_keeps_rows_primitive():
    ech = la.IntegerEchelon()
    assert ech.add((6, 4, 2))
    assert ech.rows == [(0, [3, 2, 1])]
    assert not ech.add((-9, -6, -3))
    assert not ech.add((0, 0, 0))
    assert ech.add((3, 2, 4))
    assert ech.rows[1] == (2, [0, 0, 1])


def test_extend_to_basis():
    big = la.extend_to_basis([(1, 2)], 5)
    assert len(big) == 2 and la.mat_rank(big, 5) == 2
    assert big[0] == (1, 2)
    # each unit that raises the rank, in order: e_2 lies in the span of
    # (1, 1, 0) and e_1, so e_3 comes next
    assert la.extend_to_basis([(1, 1, 0)], 3) == [(1, 1, 0), (1, 0, 0), (0, 0, 1)]
    with pytest.raises(la.CheckFailed, match="1 columns, not 2"):
        la.extend_to_basis([(0, 0)], 5)


def greedy_extension(cols, p):
    """The loop extend_to_basis replaced: each unit vector, in order, that
    raises the rank of the columns so far by one."""
    cols = [tuple(col) for col in cols]
    k = len(cols[0])
    for j in range(k):
        unit = tuple(int(i == j) for i in range(k))
        if la.mat_rank(cols + [unit], p) == len(cols) + 1:
            cols.append(unit)
    return cols


def test_extend_to_basis_matches_the_greedy_rank_loop():
    rng = random.Random(23)
    checked = 0
    for p in (2, 3, 5, 101):
        for k in range(1, 5):
            for g in range(1, k + 1):
                for _ in range(12):
                    cols = [tuple(rng.randint(-p, 2 * p) for _ in range(k)) for _ in range(g)]
                    if la.mat_rank(cols, p) == g:
                        assert la.extend_to_basis(cols, p) == greedy_extension(cols, p)
                        checked += 1
    assert checked > 300


@pytest.mark.parametrize("cols", [
    [(1, 0), (2, 0)],
    [(1, 2, 0), (0, 0, 1), (3, 1, 0)],
    [(5, 10)],
    [(1, 0), (0, 1), (1, 1)],
])
def test_extend_to_basis_refuses_dependent_columns(cols):
    # k dependent columns used to come back unextended, as if a basis
    with pytest.raises(la.CheckFailed, match="dependent mod 5"):
        la.extend_to_basis(cols, 5)


def leibniz_det(A) -> int:
    """Sum over permutations of sign times the product of the entries A[i][perm[i]]."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(A[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_mat_det_matches_the_leibniz_formula(p):
    rng = random.Random(p)
    singular = 0
    for n in range(6):
        for _ in range(25):
            # negative and unreduced entries, and small ones so that zero
            # pivots (row swaps) and singular matrices are common
            A = [[rng.choice((0, 1, -1, p, -p - 1, rng.randint(-3 * p, 3 * p)))
                  for _ in range(n)] for _ in range(n)]
            det = la.mat_det(A, p)
            assert det == leibniz_det(A) % p, A
            singular += det == 0
    assert singular > 0


@pytest.mark.parametrize("A", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]])
def test_inverse_and_determinant_refuse_a_non_square_matrix(A):
    # a 2 x 3 matrix used to get its leading block's inverse and determinant
    with pytest.raises(ValueError, match="not square"):
        la.mat_inv(A, 7)
    with pytest.raises(ValueError, match="not square"):
        la.mat_det(A, 7)


def test_check_failed_is_an_assertion_error():
    assert issubclass(la.CheckFailed, AssertionError)


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_src_has_no_check_that_python_O_strips():
    # every check raises CheckFailed (or ValueError) explicitly
    found = []
    for path in sorted(Path(la.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(Path(la.__file__).parent.glob("*.py"))) >= 9


def _private_module_access(source: str, modules) -> list:
    """Line numbers of alias._name, where alias is an imported normsum module."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level and node.module is None) or node.module == "normsum"
        ):
            aliases.update(a.asname or a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            aliases.update(
                a.asname for a in node.names
                if a.asname and a.name.partition(".")[::2] in {("normsum", m) for m in modules}
            )
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and node.attr.startswith("_") and not node.attr.startswith("__")
    ]


def test_src_calls_no_private_helper_of_another_module():
    paths = sorted(Path(la.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    found = [
        f"{path.name}:{line}"
        for path in paths for line in _private_module_access(path.read_text(), modules)
    ]
    assert found == []
    # the walk sees each import form, and leaves instance attributes alone
    probe = (
        "from . import field_core as fc\nfrom normsum import forms\n"
        "import normsum.linalg as la\nfc._tables_of(1)\nforms._roots_in(1, 2)\n"
        "la._row_reduce(1)\nchi._logs\nfc.__name__\nfc.log_table(1)\n"
    )
    assert _private_module_access(probe, modules) == [4, 5, 6]


def _complex_root_lines(source: str) -> list:
    """Line numbers that import cmath or name root_of_unity."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        named = {getattr(node, field, None) for field in ("id", "attr", "name")}
        if "root_of_unity" in named or (
            isinstance(node, ast.ImportFrom) and node.module == "cmath"
        ) or (isinstance(node, ast.alias) and node.name.partition(".")[0] == "cmath"):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_char_core_turns_weights_into_complex_numbers():
    # weight vectors become complex floats only through char_core
    src = Path(la.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py")) if path.stem != "char_core"
        for line in _complex_root_lines(path.read_text())
    ]
    assert found == []
    assert _complex_root_lines((src / "char_core.py").read_text())
    probe = (
        "import cmath as cm\nfrom cmath import exp\nz = cc.root_of_unity(1, 4)\n"
        "from .char_core import root_of_unity\ndef root_of_unity(): pass\nroot = 1\n"
    )
    assert _complex_root_lines(probe) == [1, 2, 3, 4, 5]


def _log_table_lines(source: str) -> list:
    """Line numbers that name log_table, as a name, attribute or import."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if "log_table" in {getattr(node, field, None) for field in ("id", "attr", "name")}
    })


def test_only_char_core_reads_element_codes_outside_field_core():
    # a log table is indexed by element code; F_p's codes are the residues
    # that characters mod p read, and every other module gets its logs from
    # field_core (linear_logs, log_fold), so no other module computes a code
    src = Path(la.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py")) if path.stem not in ("field_core", "char_core")
        for line in _log_table_lines(path.read_text())
    ]
    assert found == []
    assert _log_table_lines((src / "char_core.py").read_text())
    probe = (
        "t = fc.log_table(ctx)\nfrom .field_core import log_table\nlog_table\n"
        "# log_table\nfc.log_fold(ctx)\nx = 'log_table'\n"
    )
    assert _log_table_lines(probe) == [1, 2, 3]


def _defining_poly_subscripts(source: str) -> list:
    """Line numbers that subscript an attribute named defining_poly."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "defining_poly"
    })


def test_only_field_core_reads_the_defining_polynomials_coefficients():
    # f's coefficients enter arithmetic only in field_core (its kernels and
    # mult_columns); other modules pass f whole, to a root search or to JSON
    src = Path(la.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py")) if path.stem != "field_core"
        for line in _defining_poly_subscripts(path.read_text())
    ]
    assert found == []
    assert _defining_poly_subscripts((src / "field_core.py").read_text())
    probe = (
        "f0 = ctx.defining_poly[0]\ntail = c.defining_poly[:m]\nf = ctx.defining_poly\n"
        "roots([(ctx.defining_poly, 1)])\nx = 'ctx.defining_poly[0]'\nlist(c.defining_poly)\n"
    )
    assert _defining_poly_subscripts(probe) == [1, 2]


def _module_dicts(source: str) -> list:
    """Names a module binds at top level to a dict: a display, a
    comprehension, or a call of dict or of a dict subclass from collections."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        func = node.value.func if isinstance(node.value, ast.Call) else None
        called = getattr(func, "id", getattr(func, "attr", None))
        if isinstance(node.value, (ast.Dict, ast.DictComp)) or called in (
            "dict", "OrderedDict", "defaultdict", "Counter"
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_field_core_binds_one_module_level_dict():
    # every per-field table lives in one record of the one table cache, and
    # other memos are functools.cache'd functions
    src = Path(la.__file__).parent / "field_core.py"
    assert _module_dicts(src.read_text()) == ["_tables"]
    probe = (
        "a = {}\nb: dict = dict()\nc = collections.OrderedDict()\nd = {k: 1 for k in x}\n"
        "e: dict\nf = []\ng = h = defaultdict(int)\ndef i():\n    j = {}\n"
    )
    assert _module_dicts(probe) == ["a", "b", "c", "d", "g", "h"]


def _cap_reads(source: str) -> list:
    """Line numbers of alias.NAME_CAP reads, other than a cap quoted in an f-string."""
    tree = ast.parse(source)
    quoted = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue)}
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.attr.endswith("_CAP") and id(node) not in quoted
    ]


def test_harness_compares_and_computes_with_no_cap_of_another_module():
    # the harness asks each module's fits predicate and cost function instead
    assert _cap_reads((Path(la.__file__).parent / "harness.py").read_text()) == []
    probe = (
        "if p**m > fc.FIELD_SIZE_CAP:\n    pass\nx = 2 * en.PAIR_CAP\n"
        "y = f'cap {fc.FIELD_SIZE_CAP}'\nCOMMAND_CAP\n"
    )
    assert _cap_reads(probe) == [1, 3]


def _cap_comparisons(source: str) -> list:
    """The NAME_CAP names inside each comparison of the source, one per use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name.endswith("_CAP"):
                    found.append(name)
    return found


def test_each_capped_quantity_is_compared_with_its_cap_at_one_site():
    caps = (
        "PAIR_CAP", "QUAD_CROSS_CHECK_CAP", "QUAD_SCAN_CAP", "MOMENT_CAP", "BOX_CAP",
        "FIELD_SIZE_CAP", "MINIMA_DIM_CAP", "EXPANSION_CAP",
    )
    found = collections.Counter(
        name for path in sorted(Path(la.__file__).parent.glob("*.py"))
        for name in _cap_comparisons(path.read_text())
    )
    assert {cap: found[cap] for cap in caps} == dict.fromkeys(caps, 1)
    assert _cap_comparisons("if a > en.PAIR_CAP and b <= BOX_CAP:\n    pass\n") == [
        "PAIR_CAP", "BOX_CAP"
    ]


def _sites(source: str, is_site) -> list:
    """Each node of the source that is_site accepts, as the names of the
    functions around it, outermost first."""
    found = []

    def visit(node, scope):
        if is_site(node):
            found.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _src_sites(is_site) -> list:
    return [
        site for path in sorted(Path(la.__file__).parent.glob("*.py"))
        for site in _sites(path.read_text(), is_site)
    ]


def _builds_identity_row(node) -> bool:
    return isinstance(node, ast.Call) and "IdentityRow" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _writes_skip_line(node, kind: str = "") -> bool:
    """Whether node is an f-string writing a "... exceeds cap, skipped" line
    whose text holds kind."""
    if not isinstance(node, ast.JoinedStr):
        return False
    text = "".join(part.value for part in node.values if isinstance(part, ast.Constant))
    return kind in text and "exceeds cap, skipped" in text


def _writes_field_skip_line(node) -> bool:
    return _writes_skip_line(node, "field size")


def _calls_box_fits(node) -> bool:
    return isinstance(node, ast.Call) and "box_fits" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_identity_rows_are_built_at_one_site():
    # every family yields bare tuples; the suite's loop adds p, n and the status
    assert _src_sites(_builds_identity_row) == [("run_identity_suite",)]
    probe = "def f():\n    return [hn.IdentityRow(*r) for r in g()]\nIdentityRow(1)\n"
    assert _sites(probe, _builds_identity_row) == [("f",), ()]


def _closure_split_shape(source: str) -> tuple:
    """The argument counts of the itertools.product calls in _closure_split,
    and whether it has a name mult_of."""
    fn, = [node for node in ast.walk(ast.parse(source))
           if isinstance(node, ast.FunctionDef) and node.name == "_closure_split"]
    nodes = list(ast.walk(fn))
    arities = [len(node.args) for node in nodes
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "product"]
    return arities, any(isinstance(node, ast.Name) and node.id == "mult_of" for node in nodes)


def test_the_closure_split_walks_one_product_of_pruned_tails():
    # one product, of the pruned tails by the last coordinate's candidates,
    # and one orbit per first factor: no product over every coordinate and
    # no table of multiplicities grouped in a second loop
    forms = (Path(la.__file__).parent / "forms.py").read_text()
    assert _closure_split_shape(forms) == ([2], False)
    probe = (
        "def _closure_split(F):\n    mult_of = {}\n"
        "    for tail in itertools.product(*candidates):\n        mult_of[tail] = 1\n"
    )
    assert _closure_split_shape(probe) == ([1], True)


def _halves_an_exponent(node) -> bool:
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)


def test_every_power_is_raised_by_one_loop():
    # Frobenius conjugates, inverses, the primitive-element tests, X^(p^d)
    # mod f and the moment's power all call power_by_squaring, so no second
    # square-and-multiply loop can drift from its schedule
    assert _src_sites(_halves_an_exponent) == [("power_by_squaring",)]
    probe = (
        "def pow_coeffs(ctx, a, e):\n    mul = mul_kernel(ctx)\n"
        "    result = (1,) + (0,) * (ctx.m - 1)\n    while e:\n"
        "        if e & 1:\n            result = mul(result, a)\n"
        "        e >>= 1\n        if e:\n            a = mul(a, a)\n    return result\n"
    )
    assert _sites(probe, _halves_an_exponent) == [("pow_coeffs",)]


def test_the_field_skip_line_is_written_at_one_site():
    # every table command asks one helper per cap, and asks it before its
    # walk, so no two skip lines of one cap can drift apart
    assert _src_sites(_writes_field_skip_line) == [("_field_skip",)]
    assert _src_sites(_writes_skip_line) == [("_window_cost",), ("_field_skip",), ("_box_cost",)]
    harness = (Path(la.__file__).parent / "harness.py").read_text()
    assert _sites(harness, _calls_box_fits) == [("_box_cost",)]
    probe = (
        "def run(m):\n    def cost(p):\n"
        "        if not cs.box_fits(v):\n"
        "            return f'p={p}: box volume {v} exceeds cap, skipped'\n"
        "        return f'p={p}: field size {p**m} exceeds cap, skipped'\n"
        "    raise ValueError(f'field size {m} exceeds cap')\n"
    )
    assert _sites(probe, _writes_field_skip_line) == [("run", "cost")]
    assert _sites(probe, _writes_skip_line) == [("run", "cost")] * 2
    assert _sites(probe, _calls_box_fits) == [("run", "cost")]


def _derives_shape_seed(node) -> bool:
    """Whether node is a _derived_seed call of four tags, the last one k: the
    seed of the (seed, p, n, k) draw."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_derived_seed"):
        return False
    last = node.args[-1] if len(node.args) == 4 else None
    return "k" in (getattr(last, "id", None), getattr(last, "attr", None))


def _calls_box_cost(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_box_cost"


def test_the_seeded_instance_is_drawn_and_priced_at_one_site():
    # gen-form, charsum and bound-table draw one decomposition per prime; the
    # seeded commands price and walk it in one generator, the stored-object
    # charsum in its own one-prime walk
    harness = (Path(la.__file__).parent / "harness.py").read_text()
    assert _sites(harness, _derives_shape_seed) == [("_seeded_decomposition",)]
    assert _sites(harness, _calls_box_cost) == [("_seeded_boxes",), ("run_charsum",)]
    probe = (
        "def run(config):\n    def cost(p):\n        return _box_cost(p, 2, 0.0, 1, 1)\n"
        "    a = random.Random(_derived_seed(config.seed, p, config.n, config.k))\n"
        "    b = _derived_seed(seed, p, n, k)\n"
        "    c = _derived_seed(config.seed, p, n, *part) + _derived_seed(seed, p, n)\n"
    )
    assert _sites(probe, _derives_shape_seed) == [("run",)] * 2
    assert _sites(probe, _calls_box_cost) == [("run", "cost")]


def _long_lines(text: str, limit: int = 100) -> list:
    """The numbers of the lines of text longer than limit characters."""
    return [i for i, line in enumerate(text.splitlines(), 1) if len(line) > limit]


def test_no_src_line_is_over_100_characters():
    found = {
        path.name: lines for path in sorted(Path(la.__file__).parent.glob("*.py"))
        if (lines := _long_lines(path.read_text()))
    }
    assert found == {}
    assert _long_lines("x = 1\n" + "#" * 100 + "\n" + "y" * 101 + "\n") == [3]


# public functions of src that nothing in src, bench/*.py or BENCHMARK.json
# calls, each with the reason it stays
UNREFERENCED_PUBLIC = {
    "field_core.norm_via_conjugates": "oracle route for norm_kernel, the product of conjugates",
    "lattice.mult_matrix_via_columns": "oracle route for the multiplication matrix, by columns",
    "energy.energy_restricted": (
        "paper quantity: the energy split by vanishing of lambda^1; its split also runs "
        "in s1_identity_check"
    ),
}


def _referenced_names(text: str) -> set:
    """Every Name, attribute, imported name and identifier inside a string
    constant (getattr tables, traced dotted paths) of a module; the
    docstrings of the module, its classes and its functions name no use."""
    tree = ast.parse(text)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def _public_definitions(text: str) -> list:
    """(name, qualified name) of each public module function and class method."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out.extend(
                (m.name, f"{node.name}.{m.name}")
                for m in node.body if isinstance(m, ast.FunctionDef)
            )
    return [(name, qual) for name, qual in out if not name.startswith("_")]


def test_every_public_function_is_referenced_or_listed():
    src = sorted(Path(la.__file__).parent.glob("*.py"))
    repo = Path(la.__file__).resolve().parents[2]
    referenced = set()
    for path in src + sorted((repo / "bench").glob("*.py")):
        referenced |= _referenced_names(path.read_text())
    referenced |= set(re.findall(r"[A-Za-z_]\w*", (repo / "BENCHMARK.json").read_text()))
    unreferenced = {
        f"{path.stem}.{qual}"
        for path in src for name, qual in _public_definitions(path.read_text())
        if name not in referenced
    }
    # a listed name that gains a caller, or is deleted, leaves the list too
    assert unreferenced == set(UNREFERENCED_PUBLIC)


def test_reference_walk_sees_each_kind_of_use():
    probe = (
        "from .forms import decompose\nimport json\nfc.norm_table(1)\nrun(x)\n"
        "getattr(hn, 'run_lattice')\nTRACED = ['forms.verify_decomposition']\n"
    )
    assert {"decompose", "norm_table", "run", "run_lattice", "verify_decomposition"} <= (
        _referenced_names(probe)
    )
    # a name that only docstrings mention is not used
    documented = (
        '"""Module text naming mod_only."""\n'
        'class C:\n    """Class text naming class_only."""\n'
        '    def m(self):\n        """Method text naming method_only."""\n'
        '        return "kept_constant"\n'
        'def f():\n    """Function text naming function_only."""\n'
    )
    names = _referenced_names(documented)
    assert "kept_constant" in names
    assert not {"mod_only", "class_only", "method_only", "function_only"} & names
    defs = _public_definitions(
        "def f(): pass\ndef _g(): pass\nclass C:\n    def m(self): pass\n"
        "    def __init__(self): pass\n    def _h(self): pass\n"
    )
    assert defs == [("f", "f"), ("m", "C.m")]


# per-layer metrics other than .calls, .s and .self_s, which bench/trace.py's
# Tracer.metric computes by a rule of its own: (why no .calls or .s rule
# reads it, the src functions and methods it reads)
DERIVED_METRICS = {
    "charsum.box_points": (
        "a counter: the box volume of each call of either route",
        ("charsum.charsum_direct", "charsum.charsum_lifted"),
    ),
    "energy.pairs": (
        "a counter: vol_x vol_y of each histogram's instance", ("energy.energy_histogram",),
    ),
    "field_core.elements_iterated": (
        "the items a generator method yields, not its calls",
        ("field_core.ExtFieldCtx.iter_elements",),
    ),
    "forms.random_decomposition.accept_ratio": (
        "a ratio: accepted draws over class tests",
        ("forms.random_decomposition", "forms.decomposition_in_class"),
    ),
}


def _traced_callable(dotted: str) -> bool:
    """Whether module.function or module.Class.method is a public function
    that normsum's module defines, as bench/trace.py's Tracer wraps it."""
    module, *path = dotted.split(".")
    try:
        mod = obj = importlib.import_module(f"normsum.{module}")
        for attr in path:
            obj = vars(obj)[attr]
    except (ImportError, KeyError):
        return False
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not any(attr.startswith("_") for attr in path))


def test_traced_names_resolve_to_src_callables():
    """Every per-layer metric of BENCHMARK.json names something src defines,
    so a renamed or deleted traced name fails here, not as a KeyError in a
    traced benchmark run: .calls and .s a public function or method of its
    module, .self_s a module, each derived metric above one that
    bench/trace.py computes from the functions it reads, and trace.* a
    health metric that bench computes.  BENCHMARK.json and bench are read,
    never written."""
    repo = Path(la.__file__).resolve().parents[2]
    names = [m["name"] for m in json.loads((repo / "BENCHMARK.json").read_text())["per_layer"]]
    bench_source = "".join(path.read_text() for path in sorted((repo / "bench").glob("*.py")))
    trace_source = (repo / "bench" / "trace.py").read_text()
    for name in names:
        head, _, tail = name.rpartition(".")
        if head == "trace":
            assert f'"{name}"' in bench_source, name
        elif tail == "self_s":
            importlib.import_module(f"normsum.{head}")
        elif name in DERIVED_METRICS:
            assert f'"{name}"' in trace_source, name
            assert all(map(_traced_callable, DERIVED_METRICS[name][1])), name
        else:
            assert tail in ("calls", "s") and _traced_callable(head), name
    assert len(names) >= 50 and set(DERIVED_METRICS) <= set(names)
    ctx_class = importlib.import_module("normsum.field_core").ExtFieldCtx
    assert inspect.isgeneratorfunction(vars(ctx_class)["iter_elements"])
    # a missing, private or cached name, or a property, is no traced callable
    assert _traced_callable("forms.decompose")
    assert _traced_callable("forms.NormFormDecomposition.lam")
    assert not any(map(_traced_callable, (
        "forms.no_such_function", "nomodule.f", "forms._roots_in", "field_core.norm_kernel",
        "forms.BoxSpec.volume",
    )))


def test_shape_mismatch_is_value_error():
    with pytest.raises(ValueError, match="cannot multiply a 1 x 2 by a 1 x 1"):
        la.mat_mul([[1, 2]], [[1]], 5)
    with pytest.raises(ValueError, match="2 columns, vector has 3"):
        la.mat_vec([[1, 2]], [1, 2, 3], 5)
