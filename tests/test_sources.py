import ast
from pathlib import Path

import ltwist


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # pass there vacuously; the package raises instead.
    files = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_exactnum_generates_code():
    # Ring arithmetic is generated in one module: no other module of the
    # package names the exec or compile builtins.
    files = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    found = {
        f"{path.name}:{node.id}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id in ("exec", "compile")
    }
    assert found == {"exactnum.py:exec"}


def test_only_report_imports_dataclasses():
    # dataclasses, with the inspect it loads, is the dearest import a cold
    # CLI call could make for nothing; only the report's records need it
    # (asdict on RunConfig and CheckResult).
    files = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    found = {
        path.name
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    }
    assert found == {"report.py"}


def test_modules_import_no_private_names_of_each_other():
    # A helper that two modules need is public where it lives.
    files = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    found = {
        (path.name, node.module, alias.name)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ltwist")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == set()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Names of the module's top-level functions, classes and assigned names
    and of their classes' methods, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not _is_dunder(item.name):
                    yield item.name


def _identifiers(tree: ast.AST):
    # a name's own assignment is not a use of it
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def test_every_definition_is_used_by_name():
    # A helper or a module-level name that a fold leaves behind with no
    # reader is dead code; a definition counts as used when its name is
    # loaded in the package, the tests or perfbench, or occurs in
    # pyproject.toml.
    root = Path(__file__).resolve().parent.parent
    package = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    used = {name for tree in trees.values() for name in _identifiers(tree)}
    pyproject = (root / "pyproject.toml").read_text()
    unused = [
        f"{path.name}:{name}"
        for path in package
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in used and name not in pyproject
    ]
    assert unused == []


# The definitions that the product (the package and perfbench) never names:
# each is a reference that tests compare the product against.
_TEST_REFERENCES = {
    # the window sweeps that the certified fock rows are checked against
    "verify_lemma_2_3_suite": "the fock:mode-bracket rows",
    "verify_theorem_2_4_suite": "the fock:bracket rows",
    "verify_theorem_3_1": "the fock:decomposition rows",
    "verify_transpose_symmetry": "the fock:transpose row's pair count",
    "scaling_embed_check": "the fock:scaling row",
    "fit_cubic": "the cocycle null spaces, as spans of m and m^3",
    "bernoulli_number": "criterion 04b's eta(-2) = 0, from the Bernoulli numbers",
}


def test_only_test_references_go_unnamed_by_the_product():
    # A definition that only tests reach is code the product does not need,
    # unless a test compares the product against it.
    root = Path(__file__).resolve().parent.parent
    used = {
        name
        for folder in ("src", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for name in _identifiers(ast.parse(path.read_text(), str(path)))
    }
    pyproject = (root / "pyproject.toml").read_text()
    unnamed = {
        name
        for path in sorted(Path(ltwist.__file__).parent.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in used and name not in pyproject
    }
    assert unnamed == set(_TEST_REFERENCES)


_SWEEP_PREFIXES = ("verify_lemma_2_3", "verify_theorem_2_4")
_SWEEPS_AND_COLUMNS = {"verify_theorem_3_1", "verify_transpose_symmetry", "verify_scaling_suite",
                       "scaling_embed_check", "commutator_window", "matrix_equal",
                       "apply_icolumn", "icolumn", "column"}


def test_report_and_cli_name_no_window_sweep_or_column():
    # Every Fock row and `fock verify` id decides by certificate on the
    # whole Fock space: neither the checks nor the CLI name a window sweep
    # or the absolute columns the sweeps compare.
    root = Path(ltwist.__file__).parent
    found = sorted(
        f"{name}:{used}"
        for name in ("checks.py", "cli.py")
        for used in set(_identifiers(ast.parse((root / name).read_text(), name)))
        if used.startswith(_SWEEP_PREFIXES) or used in _SWEEPS_AND_COLUMNS
    )
    assert found == []


_REPRESENTATION_NAMES = {"_check_representation", "_check_columns", "_table_steps",
                         "_difference"}
_CERTIFICATE_NAMES = {"_form", "_Form", "_bracket", "_mismatch", "_combine", "_adjoint",
                      "_lookup", "_after", "_sum", "_jacobi"} | _REPRESENTATION_NAMES


def _fock_bodies() -> dict:
    """{name: the identifiers its body names} for every function and class
    of fock.py, one entry per name."""
    path = Path(ltwist.__file__).parent / "fock.py"
    bodies: dict = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bodies.setdefault(node.name, set()).update(_identifiers(node))
    return bodies


def _reached(bodies: dict, roots) -> set:
    """The names reachable from `roots`: named by a reached body, a
    method's name reaching every method of that name."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies[name] & bodies.keys())
    return reached


def test_window_sweeps_name_no_certificate_code():
    # The sweeps are the independent reference of the certified rows: no
    # function they can reach in fock.py names the normal-ordering
    # certificates or the representation check.  Every listed name is
    # defined, so a deleted one cannot weaken the rule.
    bodies = _fock_bodies()
    roots = [name for name in bodies if name.startswith("verify_")
             or name in ("scaling_embed_check", "commutator_window")]
    reached = _reached(bodies, roots)
    bad = sorted(f"{name} names {used}" for name in reached for used in bodies[name]
                 if used in _CERTIFICATE_NAMES or used.startswith("_certify"))
    assert len(roots) >= 10 and "matrix_equal" in reached
    assert _CERTIFICATE_NAMES <= bodies.keys()
    assert bad == []


def test_identity_suites_reach_no_column_check():
    # The identity rows and the transpose row decide by certificate alone:
    # no function they can reach names the representation check, which is
    # the fock:representation:N rows' (and the scaling row's) own.
    bodies = _fock_bodies()
    roots = ["certify_lemma_2_3_suite", "certify_theorem_2_4_suite", "certify_theorem_3_1",
             "certify_transpose_symmetry"]
    reached = _reached(bodies, roots)
    bad = sorted(f"{name} names {used}" for name in reached for used in bodies[name]
                 if used in {"_check_representation", "_check_columns"})
    assert {"_certify", "_mismatch", "_entry_count"} <= reached
    assert bad == []
    assert "_check_columns" in _reached(bodies, ["representation_suite", "certify_scaling_suite"])


def test_fock_stores_attributes_only_in_init():
    # An operator's state is set when it is made: no function of fock.py
    # outside an `__init__` assigns an attribute, so no check can leave a
    # mark on a shared operator for a later one to read.
    path = Path(ltwist.__file__).parent / "fock.py"
    tree = ast.parse(path.read_text(), str(path))
    in_init = {id(node) for init in ast.walk(tree)
               if isinstance(init, ast.FunctionDef) and init.name == "__init__"
               for node in ast.walk(init)}
    stores = [node for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))]
    assert stores and [f"{node.lineno}: {node.attr}" for node in stores
                       if id(node) not in in_init] == []


def test_representation_checks_build_columns_only_with_the_kernel():
    # The representation check, every shift in its one loop, fetches each
    # operator's compiled kernel once and calls it on every state, on
    # columns relative to the state, naming no absolute column, whose
    # re-keying it would pay for; of fock.py only it and the sweeps'
    # `BilinearOp.icolumn` fetch a kernel.
    path = Path(ltwist.__file__).parent / "fock.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    functions.update({f"{cls.name}.{node.name}": node for cls in tree.body
                      if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)})
    used = {name: set(_identifiers(node)) for name, node in functions.items()}
    assert {name for name, names in used.items() if "_relative" in names} == {
        "_check_representation", "BilinearOp.icolumn"}
    assert "icolumn" not in used["_check_representation"]


def test_one_central_term_reads_the_closed_form_of_l_minus_one():
    # Theorem 2.4 has one right side: no function takes L(-1) as a
    # parameter, `_central_term` reads its closed form, and only the
    # scaling suite names it besides, to state its claim that the dilated
    # twists keep chi's central values.  The pair certificate needs no
    # central scalar, as both sides of a case are linear in the product.
    path = Path(ltwist.__file__).parent / "fock.py"
    tree = ast.parse(path.read_text(), str(path))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and "lm1" in {a.arg for a in node.args.args + node.args.kwonlyargs}] == []
    used = {node.name: set(_identifiers(node)) for node in tree.body  # nested: the owner's
            if isinstance(node, ast.FunctionDef)}
    assert {name for name, names in used.items() if "l_minus_one_form" in names} == {
        "_central_term", "certify_scaling_suite"}
    assert used["_pair_certificate"] & {"l_minus_one", "_central_term"} == set()


_CALCULUS = ("_lookup", "_after", "_sum", "_jacobi", "_combine", "_bracket", "_mismatch",
             "_adjoint")


def test_certificate_calculus_computes_in_its_ring():
    # The normal-ordering calculus holds functions into the ring, over one
    # scale per form: its functions name no scalar constructor or scalar
    # method, and scalars cross only at the ring's boundary, `_combine`
    # taking its weights as ring elements (`_form` converts them) and
    # `_mismatch` naming witnesses through `to_scalar`.
    path = Path(ltwist.__file__).parent / "fock.py"
    used = {node.name: set(_identifiers(node))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef) and node.name in _CALCULUS}
    assert set(used) == set(_CALCULUS)
    scalar = {"rat", "Rat", "CycloNum", "scalar_parts", "is_rational", "conjugate", "zeta",
              "from_scalar", "to_scalar", "_OverDenominator"}
    assert {name: names & scalar for name, names in used.items() if names & scalar} == {
        "_mismatch": {"to_scalar"}}


def _defaulted_parameters(tree: ast.Module):
    """(function name, parameter name, position) for every parameter with a
    default, position being its index among the positional arguments a
    call passes (None for keyword-only ones); a method's self is not
    counted, and an `__init__` is named by its class."""
    owners = {item: node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(node)
        name = owner if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if owner and not static else 0
        for arg in positional[len(positional) - len(node.args.defaults):]:
            yield name, arg.arg, positional.index(arg) - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed_parameters(tree: ast.AST):
    """(callee name, keyword names, positional count, starred) per call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            yield name, {k.arg for k in node.keywords}, len(node.args), starred


def test_every_optional_parameter_is_set_by_a_caller():
    # A defaulted parameter that no call sets is an input form nobody
    # gives: its default is the only value the program ever sees.  A call
    # sets it by keyword, by position, or through * / **; calls are matched
    # by name, a class name standing for its `__init__`.
    root = Path(__file__).resolve().parent.parent
    calls: dict = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for name, keywords, count, starred in _passed_parameters(
                    ast.parse(path.read_text(), str(path))):
                calls.setdefault(name, []).append((keywords, count, starred))
    unset = [
        f"{path.name}:{name}({param})"
        for path in sorted(Path(ltwist.__file__).parent.glob("*.py"))
        for name, param, position in _defaulted_parameters(
            ast.parse(path.read_text(), str(path)))
        if not any(starred or param in keywords
                   or (position is not None and count > position)
                   for keywords, count, starred in calls.get(name, ()))
    ]
    assert unset == []


def test_one_rational_type():
    # one rational type, bound once: no second backend to choose at import
    import fractions

    from ltwist import exactnum

    assert exactnum.Rat is fractions.Fraction
    assert exactnum.rat is exactnum.Rat
    found = [
        f"{path.name}:{i}"
        for path in sorted(Path(ltwist.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "gmpy2" in line or "mpq" in line
    ]
    assert found == []


_SCALAR_TYPES = {"CycloNum", "Rat"}


def _calls_by_function(node, owner=""):
    """(name of the innermost enclosing function, call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls_by_function(child, child.name if inner else owner)


def test_scalar_types_are_tested_only_in_exactnum():
    # Outside exactnum a scalar answers Python's numeric protocol
    # (`conjugate()`, `complex()`, the operators) instead of a type check;
    # a periodic function takes its values in through `exactnum.as_scalar`.
    found = [
        f"{path.name}:{owner}"
        for path in sorted(Path(ltwist.__file__).parent.glob("*.py"))
        if path.name != "exactnum.py"
        for owner, call in _calls_by_function(ast.parse(path.read_text(), str(path)))
        if getattr(call.func, "id", None) == "isinstance"
        and _SCALAR_TYPES & set(_identifiers(call.args[1]))
    ]
    assert found == []
