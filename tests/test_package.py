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
    # door to SciPy's, and it imports the scipy package only when loading a
    # compiled module without it fails.  No other module imports SciPy or
    # names it to an importer.
    assert {path.name for path in _SOURCE.glob("*.py")
            if _names_scipy(ast.parse(path.read_text()))} == {"lapack.py"}


def _fresh_python(script: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(_SOURCE.parent)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return result.stdout.splitlines()


def test_import_loads_scipys_compiled_wrappers_not_scipy_linalg():
    # scipy.linalg's __init__ loads SciPy's array-API layer and with it
    # numpy.f2py, numpy.testing and numpy.ma, about half of import kare;
    # scipy's own __init__ loads subprocess among others, and argparse
    # loads gettext and locale.  kare.lapack loads the two compiled modules
    # alone, under their own names, so a later import of scipy.linalg
    # shares them, and kare.cli imports argparse only to parse.  Only
    # module sets are checked, no time.
    script = (
        "import sys\n"
        "import kare, kare.cli, kare.validation\n"
        "names = ('scipy.linalg._flapack', 'scipy.linalg._fblas', 'scipy.linalg', 'scipy',\n"
        "         'numpy.f2py', 'numpy.testing', 'numpy.ma', 'argparse', 'subprocess')\n"
        "print(' '.join(name for name in names if name in sys.modules))\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.dposv is kare.lapack.dposv,\n"
        "      scipy.linalg.blas.dgemv is kare.lapack._blas.dgemv)\n"
    )
    assert _fresh_python(script) == ["scipy.linalg._flapack scipy.linalg._fblas", "True True"]


def test_import_without_scipy_names_the_missing_module():
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
    # SciPy's Windows wheels add their DLL directory in scipy/__init__, so
    # there the compiled modules load only after the package has run.
    script = (
        "import sys\n"
        "import numpy, numpy.random\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "create = ExtensionFileLoader.create_module\n"
        "def create_after_scipy(self, spec):\n"
        "    if spec.name.startswith('scipy.linalg.') and 'scipy' not in sys.modules:\n"
        "        raise ImportError('DLL load failed')\n"
        "    return create(self, spec)\n"
        "ExtensionFileLoader.create_module = create_after_scipy\n"
        "import kare\n"
        "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.dposv is kare.lapack.dposv,\n"
        "      scipy.linalg.blas.dgemv is kare.lapack._blas.dgemv)\n"
    )
    assert _fresh_python(script) == ["True False", "True True"]


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
