"""Module layering of the package, checked on the source text.

Imports sit at module level only (an import inside a function hides a
dependency and costs a lookup on every call), and the amplitude layer sits
below the packet layer: `amplitudes` imports neither `asymptotics` nor
`wavepacket`, and `asymptotics` does not import `wavepacket`.  Tail bounds
are declared in `amplitudes` and derived in `quadrature`, so `wavepacket`
builds no `DecayBound` of its own and rescales none by hand, and `Custom`
guesses no transform bound.  Every amplitude carries a declared `decay`, so
no module reads one through `getattr` with a default, and only `quadrature`
reads it: every amplitude integral takes its tail bound from
`chirp_integral`.  The result types are slotted, one function of
`quadrature` applies the Kronrod rule, and only the zero-damping limit and
the finite-difference derivative call the Neville table.  The run time
needs numpy only: no module imports scipy or mpmath, which stay test
dependencies.  Every private top-level function has a caller in the package
(helpers nothing calls get deleted), and one place builds the CVZ constant
3 + sqrt(8), so the package keeps one alternating-series accelerator: it
lives in `foundation`, and both the pole sums and the zeta tails call it.
The package's one line search lives there too.  `QuadratureResult.checked`
is the one gate from an oracle result to a number: no module but
`quadrature` reads the `converged` flag.  `quadrature.chirp_integral` is the
one builder of an oracle integrand's chirp factor exp(-i tau z^2), with its
tail bound, so no other module puts tau in an `np.exp` and `wavepacket` takes
no `packet_decay` bound.

The package namespace resolves lazily in one place: `wavepack.__getattr__`
maps each exported name to its defining module, and each submodule name to
the submodule, when it is read, and keeps no copy.  So `import wavepack`
loads no numpy, and each CLI subcommand loads only its own layers (checked
through `sys.modules` in a fresh interpreter): `ledger` needs no numpy, `psi`
skips `registry`, `zeta` and the layers `wavepacket` reads only when called
(`asymptotics`, `closedform`, `fd`), and `zeta` skips `registry`,
`wavepacket` and `amplitudes`.  Each of those commands, and `import
wavepack.quadrature`, loads exactly its pinned set of package modules and no
`numpy.fft`.

`quadrature` names no amplitude family: the strip trapezoid reads one
`StripBound` type, never subclassed, with no per-family branch.  In
`wavepacket`, only the resolver of the table `PSI_PATHS` compares a method
name.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavepack
from wavepack.amplitudes import AMPLITUDE_FAMILIES, Amplitude
from wavepack.quadrature import DecayBound

SRC = Path(__file__).resolve().parent.parent / "src" / "wavepack"
MODULES = sorted(SRC.glob("*.py"))


def _imported_modules(tree):
    """Names of the package modules a module imports ("wavepacket", ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("wavepack."):
                names.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("wavepack."))
    return names


def test_no_module_imports_scipy_or_mpmath():
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {f"{path.name}:{name}" for name in names
                      if name.split(".")[0] in ("scipy", "mpmath")}
    assert found == set()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so no test module's own scipy import counts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, wavepack.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_sources_found():
    assert {"amplitudes.py", "asymptotics.py", "wavepacket.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    nested = {f"{path.name}:{inner.lineno}"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(fn) if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert nested == set()


@pytest.mark.parametrize("module,forbidden", [
    ("asymptotics", {"wavepacket"}),
    ("amplitudes", {"wavepacket", "asymptotics"}),
])
def test_lower_layers_do_not_import_upper(module, forbidden):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _imported_modules(tree) & forbidden == set()


def test_wavepacket_derives_no_tail_bound_itself():
    tree = ast.parse((SRC / "wavepacket.py").read_text())
    built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DecayBound"]
    assert built == []


def test_no_bound_is_rescaled_by_hand_or_guessed():
    # wavepacket scales a bound through DecayBound.times_const, not
    # dataclasses.replace, and Custom guesses no transform bound from its decay
    tree = ast.parse((SRC / "wavepacket.py").read_text())
    replaced = [node.lineno for node in ast.walk(tree)
                if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    and any(alias.name == "replace" for alias in node.names))
                or (isinstance(node, ast.Attribute) and node.attr == "replace"
                    and getattr(node.value, "id", None) == "dataclasses")]
    custom = next(node for node in ast.walk(ast.parse((SRC / "amplitudes.py").read_text()))
                  if isinstance(node, ast.ClassDef) and node.name == "Custom")
    declared = [node.lineno for node in custom.body
                if getattr(node, "name", None) == "transform_decay"
                or any(getattr(t, "id", None) == "transform_decay"
                       for t in getattr(node, "targets", [getattr(node, "target", None)]))]
    assert (replaced, declared) == ([], [])


def test_every_amplitude_declares_its_decay():
    # the oracle's error bound rests on the declared decay, so no code reads
    # a decay through getattr(obj, "...decay", default) and guesses a bound
    # where it is missing; every family and a Custom carry a DecayBound
    guessed = {f"{path.name}:{node.lineno}" for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
               and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
               and str(node.args[1].value).endswith("decay")}
    amps = [build({"beta": 1.0}) for build in AMPLITUDE_FAMILIES.values()]
    amps.append(Amplitude.custom(lambda z: np.exp(-np.asarray(z) ** 2), parity="even",
                                 decay=DecayBound(rate=0.5)))
    undeclared = [amp for amp in amps if not isinstance(amp.decay, DecayBound)]
    assert (guessed, undeclared) == (set(), [])


def test_only_quadrature_reads_the_declared_decay():
    # the tail bound of every amplitude integral comes from
    # quadrature.chirp_integral, so no other module builds an integrand on an
    # amplitude's declared decay; amplitudes declares it
    readers = {f"{path.name}:{node.lineno}" for path in MODULES
               if path.name not in ("quadrature.py", "amplitudes.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "decay"
               and isinstance(node.ctx, ast.Load)}
    assert readers == set()


def test_only_quadrature_reads_the_declared_sector():
    # the rotated contour is chirp_integral's, so no other module turns a
    # packet's tails onto rays from an amplitude's sector bound; amplitudes
    # declares it
    readers = {f"{path.name}:{node.lineno}" for path in MODULES
               if path.name not in ("quadrature.py", "amplitudes.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "sector"
               and isinstance(node.ctx, ast.Load)}
    assert readers == set()


@pytest.mark.parametrize("module,name", [
    ("quadrature", "QuadratureResult"),
    ("wavepacket", "WaveValue"),
    ("foundation", "SeriesEval"),
    ("registry", "IdentityReport"),
])
def test_result_types_are_slotted_dataclasses(module, name):
    # many results are held at once (a verify run, a benchmark), so each
    # instance goes without a __dict__
    tree = ast.parse((SRC / f"{module}.py").read_text())
    cls = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name)
    slots = [kw.value.value for deco in cls.decorator_list if isinstance(deco, ast.Call)
             and getattr(deco.func, "id", None) == "dataclass"
             for kw in deco.keywords if kw.arg == "slots"]
    assert slots == [True]


def test_one_function_applies_the_kronrod_rule():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Name)
               and node.id == "_WGK" and isinstance(node.ctx, ast.Load)}
    assert len(readers) == 1, readers


def test_only_the_limit_and_fd_call_neville():
    # one zero-damping limit: the damping strengths, the extrapolation and the
    # settled rule live in quadrature.regularized_limit alone
    callers = {f"{path.stem}.{getattr(top, 'name', '<module>')}"
               for path in MODULES for top in ast.parse(path.read_text()).body
               for call in ast.walk(top) if isinstance(call, ast.Call)
               and getattr(call.func, "id", getattr(call.func, "attr", None)) == "neville_extrapolate"}
    assert callers == {"quadrature.regularized_limit", "fd.derivative"}


def _is_evaluator(fn):
    # registered through @evaluator("name") and called through the registry table
    return any(isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "evaluator"
               for deco in fn.decorator_list)


def test_every_private_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    private = {(module, top.name) for module, tree in trees.items() for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
               and not top.name.startswith("__") and not _is_evaluator(top)}
    # (module, top-level definition) of every name read anywhere in the package
    used = {(node.id if isinstance(node, ast.Name) else node.attr,
             module, getattr(top, "name", None))
            for module, tree in trees.items() for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) or isinstance(node, ast.Attribute)}
    uncalled = {f"{module}.{name}" for module, name in private
                if not any(n == name and (m, d) != (module, name) for n, m, d in used)}
    assert uncalled == set()


def _is_cvz_constant(node):
    """3 + sqrt(8), either order, or a literal equal to it."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return abs(node.value - 5.828427124746190) < 1e-9
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    def is_three(n):
        return isinstance(n, ast.Constant) and n.value == 3
    def is_sqrt8(n):
        return (isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "sqrt"
                and len(n.args) == 1 and isinstance(n.args[0], ast.Constant) and n.args[0].value == 8)
    return (is_three(node.left) and is_sqrt8(node.right)) or (is_sqrt8(node.left) and is_three(node.right))


def test_one_place_builds_the_cvz_constant():
    sites = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text())) if _is_cvz_constant(node)]
    assert len(sites) == 1, sites


@pytest.mark.parametrize("name,callers", [
    ("alternating_series_cvz", {"amplitudes", "zeta"}),
    ("golden_section_min", {"asymptotics", "quadrature", "wavepacket"}),
])
def test_one_accelerator_and_one_line_search_in_foundation(name, callers):
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    defined = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name}
    calling = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}
    assert (defined, calling & callers) == ({"foundation"}, callers)


def test_only_quadrature_reads_the_converged_flag():
    # every other module takes an oracle value through QuadratureResult.checked,
    # so no caller can use an unconverged value without the error
    readers = {f"{path.name}:{node.lineno}" for path in MODULES if path.name != "quadrature.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "converged"}
    assert readers == set()


def test_only_quadrature_builds_the_chirp_factor():
    # the chirp, its tail bound and its frequency lines live in
    # quadrature.chirp_integral; cmath phases of closed forms are not integrands
    chirps = {f"{path.name}:{node.lineno}" for path in MODULES if path.name != "quadrature.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "exp" and getattr(node.func.value, "id", None) == "np"
              and any(isinstance(name, ast.Name) and name.id == "tau"
                      for arg in node.args for name in ast.walk(arg))}
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "wavepacket.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert (chirps, "packet_decay" in imported) == (set(), False)


def test_quadrature_names_no_amplitude_family():
    # the oracle and the strip trapezoid serve every family through the
    # declared DecayBound and StripBound, so no code of quadrature (docstrings
    # and comments aside) names a family or imports the amplitudes
    families = {"gaussian", "sech", "glaisher", "custom"}
    tree = ast.parse((SRC / "quadrature.py").read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    named = set()
    for node in ast.walk(tree):
        words = [getattr(node, key, None) for key in ("id", "attr", "name", "arg")]
        if isinstance(node, ast.Constant) and id(node) not in docstrings:
            words.append(node.value)
        named |= {f"{node.lineno}:{word}" for word in words
                  if isinstance(word, str) and any(f in word.lower() for f in families)}
    assert (named, "amplitudes" in _imported_modules(tree)) == (set(), False)


def test_the_strip_trapezoid_has_no_per_family_branch():
    # one StripBound type, subclassed nowhere, and chirp_trapezoid reads the
    # amplitude only through its declared strip and decay: no type test and no
    # attribute of amp
    tree = ast.parse((SRC / "quadrature.py").read_text())
    strips = {node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and "strip" in node.name.lower()}
    subclasses = {f"{path.name}:{node.lineno}" for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and any(getattr(base, "id", getattr(base, "attr", None)) == "StripBound"
                          for base in node.bases)}
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "chirp_trapezoid")
    typed = {node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("isinstance", "type", "hasattr")}
    read = {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "amp"}
    got = {node.args[1].value for node in ast.walk(fn) if isinstance(node, ast.Call)
           and getattr(node.func, "id", None) == "getattr"}
    assert (strips, subclasses, typed, read, got) == ({"StripBound"}, set(), set(), set(),
                                                      {"strip"})


def test_one_resolver_reads_the_method():
    # psi and position_norm_squared take their path from the ordered table
    # PSI_PATHS through one resolver, so no other code of wavepacket tests a
    # method name and no second dispatch point grows back
    tree = ast.parse((SRC / "wavepacket.py").read_text())
    tests = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    readers = {f"{getattr(top, 'name', '<module>')}:{node.lineno}"
               for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Compare) and any(isinstance(op, tests) for op in node.ops)
               and any(isinstance(side, ast.Name) and side.id == "method"
                       for side in (node.left, *node.comparators))}
    assert {site.split(":")[0] for site in readers} == {"_psi_path"}, readers


def _modules_loaded(code):
    """The sys.modules names of a fresh interpreter after it ran `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += "\nprint(__import__('json').dumps(sorted(__import__('sys').modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def _cli_run(*argv):
    """Code that runs `python -m wavepack.cli ARGV` in place and checks it exits 0."""
    return ("import runpy, sys\n"
            f"sys.argv = ['wavepack', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('wavepack.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")


@pytest.mark.parametrize("code,loaded,absent,package", [
    ("import wavepack", {"wavepack"}, {"numpy"}, set()),
    ("import wavepack.quadrature", {"wavepack.quadrature"}, {"numpy.fft"},
     {"errors", "foundation", "quadrature"}),
    (_cli_run("ledger", "--json"), {"wavepack.ledger"}, {"numpy"}, {"errors", "ledger"}),
    (_cli_run("psi", "--amplitude", "sech", "--beta", "1.3", "--x", "0.7", "--t", "0.5,-0.2"),
     {"wavepack.wavepacket"}, {"wavepack.registry", "wavepack.zeta", "wavepack.asymptotics",
                               "wavepack.closedform", "wavepack.fd", "numpy.fft"},
     {"amplitudes", "errors", "foundation", "hermite", "quadrature", "wavepacket"}),
    (_cli_run("zeta", "--m=2", "--method=lattice", "--json"), {"wavepack.zeta"},
     {"wavepack.registry", "wavepack.wavepacket", "wavepack.amplitudes", "numpy.fft"},
     {"errors", "foundation", "hermite", "quadrature", "zeta"}),
], ids=["import", "quadrature", "ledger", "psi", "zeta-lattice"])
def test_each_command_loads_only_its_layers(code, loaded, absent, package):
    # `package` pins the whole set of wavepack submodules loaded, so a new
    # import anywhere in a command's layers shows here
    modules = _modules_loaded(code)
    assert (loaded - modules, absent & modules) == (set(), set())
    assert {m for m in modules if m.startswith("wavepack.")} == {f"wavepack.{m}" for m in package}


def _defined_names(top):
    """Names a top-level statement defines (def, class or assignment)."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("name", wavepack.__all__)
def test_every_export_is_its_defining_modules_object(name):
    # the home is read from the sources, not from the package's own table
    homes = {path.stem for path in MODULES for top in ast.parse(path.read_text()).body
             if name in _defined_names(top)}
    assert len(homes) == 1, homes
    namespace = {}
    exec(f"from wavepack import {name}", namespace)
    assert namespace[name] is getattr(getattr(wavepack, homes.pop()), name)


def test_the_namespace_keeps_no_copy(monkeypatch):
    # a rebinding in the defining module (as the benchmark's tracer makes) is
    # what the next `wavepack.<name>` read returns
    def marker():
        pass

    assert wavepack.psi is wavepack.wavepacket.psi
    monkeypatch.setattr(wavepack.wavepacket, "psi", marker)
    assert wavepack.psi is marker and "psi" not in vars(wavepack)


def test_dir_lists_all_and_unknown_names_raise():
    assert set(wavepack.__all__) <= set(dir(wavepack))
    assert not hasattr(wavepack, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        wavepack.no_such_name


def test_only_the_package_getattr_imports_by_name():
    callers = {f"{path.stem}.{getattr(top, 'name', '<module>')}"
               for path in MODULES for top in ast.parse(path.read_text()).body
               for call in ast.walk(top) if isinstance(call, ast.Call)
               and getattr(call.func, "id", getattr(call.func, "attr", None))
               in ("import_module", "__import__")}
    assert callers == {"__init__.__getattr__"}
