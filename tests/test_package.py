import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kare


def test_public_names_are_fixed():
    # The public names are a fixed contract: a refactor keeps every one.
    assert sorted(kare.__all__) == [
        "Dataset", "FAMILIES", "FormatError", "GramSpectrum", "KernelSpec",
        "ObservationDraw", "ParseError", "Predictor", "RidgeScores", "SctResult",
        "Spectrum", "TrueFunction", "__version__", "bayesian_risk",
        "classical_alignment", "cross_gram", "cross_validation_risk", "decompose",
        "draw", "empirical_train_error", "exact_risk", "fit", "gram_matrix", "kare",
        "kernel_eval", "load_csv", "load_mnist_idx", "log_marginal_likelihood",
        "mc_coeff_stats", "mc_expected_risk", "mc_operator_moments",
        "mean_predictor_coeffs", "power_law_spectrum", "predict",
        "predictor_variance_component", "preprocess_maxabs", "preprocess_mnist",
        "rbf_gaussian_spectrum", "save_csv", "sct_from_gram", "shell_multiplicity",
        "solve_sct", "split_train_test", "stieltjes", "stieltjes_derivative",
        "subsample", "test_risk", "theoretical_risk", "theoretical_train_error",
        "train_error", "train_error_closed_form", "varrho",
    ]
    assert all(hasattr(kare, name) for name in kare.__all__)


_SOURCE = Path(kare.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _names_scipy(tree: ast.AST) -> bool:
    """Whether a module imports SciPy, reads a name ``scipy`` or passes a
    module name under ``scipy`` as a string (to importlib, say)."""
    return (any(name.split(".")[0] == "scipy" for name in _imported_modules(tree))
            or any(isinstance(node, ast.Name) and node.id == "scipy"
                   or isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.split(".")[0] == "scipy"
                   for node in ast.walk(tree)))


def test_only_lapack_imports_scipy():
    # NumPy and SciPy each load their own OpenBLAS; kare.lapack is the one
    # door to SciPy's, and it imports the scipy package only when SciPy
    # bundles no OpenBLAS and loading a compiled wrapper without the package
    # fails.  No other module imports SciPy or names it to an importer.
    assert {path.name for path in _SOURCE.glob("*.py")
            if _names_scipy(ast.parse(path.read_text()))} == {"lapack.py"}


def _fresh_python(script: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(_SOURCE.parent)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return result.stdout.splitlines()


def test_import_loads_no_scipy_module_and_shares_scipys_openblas():
    # scipy.linalg's __init__ loads SciPy's array-API layer and with it
    # numpy.f2py, numpy.testing and numpy.ma, about half of import kare;
    # scipy's own __init__ loads subprocess among others, SciPy's two f2py
    # wrappers hold 2.6 MB, and argparse loads gettext and locale.  On a
    # wheel install kare.lapack loads SciPy's bundled OpenBLAS alone, which
    # a later import of scipy.linalg shares, and kare.cli imports argparse
    # only to parse.  Only module sets and mapped files are checked, no time.
    script = (
        "import os, sys\n"
        "import kare, kare.cli, kare.validation\n"
        "print(kare.lapack.LIBRARY)\n"
        "names = ('numpy.f2py', 'numpy.testing', 'numpy.ma', 'argparse', 'subprocess')\n"
        "print(' '.join(name for name in sorted(sys.modules)\n"
        "               if name in names or name.split('.')[0] == 'scipy'))\n"
        "import scipy.linalg\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        paths = {line.split()[-1] for line in maps if '/' in line}\n"
        "    print(' '.join(sorted(os.path.basename(path) for path in paths\n"
        "                          if os.path.basename(os.path.dirname(path)) == 'scipy.libs'\n"
        "                          and os.path.basename(path).startswith('libscipy_openblas'))))\n"
    )
    library, modules, *mapped = _fresh_python(script)
    if library == "f2py capsules":
        pytest.skip("this SciPy bundles no OpenBLAS, so kare loads its f2py wrappers")
    assert modules == ""
    if not mapped:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert mapped == [library]


def test_import_without_scipy_names_the_missing_module():
    # Without SciPy there is no bundled OpenBLAS beside it, and the lookup
    # through SciPy's f2py wrappers names the first one it needs.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # as if SciPy were not installed\n"
        "try:\n"
        "    import kare\n"
        "except ImportError as exc:\n"
        "    print(exc.name)\n"
        "    print(exc)\n"
    )
    assert _fresh_python(script) == [
        "scipy.linalg._flapack",
        "kare needs SciPy's compiled scipy.linalg._flapack, and SciPy does not import"]


def test_a_failed_direct_load_falls_back_to_the_scipy_package():
    # Where SciPy bundles no OpenBLAS (here: the lookup's scipy.libs is
    # hidden), kare.lapack imports SciPy's f2py wrappers and binds the
    # routines they call.
    script = (
        "import os\n"
        "isdir = os.path.isdir\n"
        "os.path.isdir = lambda path: isdir(path) and os.path.basename(path) != 'scipy.libs'\n"
        "import kare\n"
        "os.path.isdir = isdir\n"
        "print(kare.lapack.LIBRARY)\n"
        "import ctypes, scipy.linalg\n"
        "print(kare.lapack._capsule_address(scipy.linalg.lapack.dposv._cpointer)\n"
        "      == ctypes.cast(kare.lapack._dposv, ctypes.c_void_p).value)\n"
    )
    assert _fresh_python(script) == ["f2py capsules", "True"]


@pytest.mark.parametrize("module", ["cli.py", "estimators.py", "krr.py", "kernels.py", "data.py"])
def test_sweep_modules_make_no_numpy_blas_call(module):
    # A NumPy product or decomposition in a sweep would wake NumPy's
    # OpenBLAS thread pool next to SciPy's; the sweep's modules go through
    # kare.lapack instead.
    tree = ast.parse((_SOURCE / module).read_text())
    banned = {"linalg", "dot", "matmul", "inner"}
    found = [f"line {node.lineno}: @" for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    found += [f"line {node.lineno}: np.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in banned
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    found += [f"import {name}" for name in _imported_modules(tree)
              if name.split(".")[0] == "numpy" and set(name.split(".")[1:]) & banned]
    assert found == []


def test_only_lapack_calls_a_numpy_eigendecomposition():
    # After one np.linalg.eigh of a 40 x 40 matrix, 60 SciPy dposv solves
    # (40 x 40, 30 right-hand sides) in a fresh process took a median 3.9 ms
    # against 2.3 ms after kare.lapack.eigh, on a 2-core VM.  So every
    # eigendecomposition goes through kare.lapack; NumPy's products, qr and
    # solve stay allowed.
    found = []
    for path in sorted(_SOURCE.glob("*.py")):
        if path.name == "lapack.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {"numpy.linalg"} | {alias.asname or alias.name for node in ast.walk(tree)
                                      if isinstance(node, ast.Import) for alias in node.names
                                      if alias.name == "numpy.linalg"}
        found += [f"{path.name} line {node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("eig")
                  and ast.unparse(node.value) in aliases | {"np.linalg", "linalg"}]
        found += [f"{path.name}: from {name}" for name in _imported_modules(tree)
                  if name.startswith("numpy.linalg.eig")]
    assert found == []
