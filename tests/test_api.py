import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tcvm

MODULES = sorted(m.name for m in pkgutil.iter_modules(tcvm.__path__, "tcvm."))


@pytest.mark.parametrize("name", ["tcvm"] + MODULES)
def test_exports_resolve_and_are_public(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert not [n for n in exported if n.startswith("_")]
    assert not [n for n in exported if not hasattr(module, n)]
    assert len(set(exported)) == len(exported)


# the package's exports by home module, pinned: a name that moves, appears or
# goes away changes the public surface
EXPORTS = {
    "alternatives": [
        "AlternativeSpec", "ArityError", "ParamDomainError", "SpecError",
        "TABLE1_ALTERNATIVES", "UnknownFamilyError", "parse_spec", "sample",
    ],
    "baselines": [
        "BaselineKind", "REJECTION_TAIL", "anderson_darling", "batch_statistics",
        "bcmr", "shapiro_francia", "shapiro_wilk",
    ],
    "engine": [
        "ConstantCEstimate", "MomentCheck", "PowerReport", "estimate_constant_c",
        "estimate_critical_values", "estimate_null_critical_values",
        "estimate_power", "replication_rng", "simulate_table", "verify_fourth_moments",
    ],
    "normal": ["Endpoint", "c_n", "cdf", "d_n", "endpoint", "pdf", "quantile"],
    "process": ["MomentPoint", "b_hat_n", "b_n", "cov_b2", "ebb2", "fourth_moment_exact"],
    "statistic": [
        "DegenerateSampleError", "TcvmResult", "TestOutcome", "compute_tstar",
        "compute_tstar_direct", "compute_untruncated", "decide", "tcvm_test",
    ],
    "table": [
        "ALPHA_LEVELS", "CriticalValueRow", "CriticalValueTable", "TableCoverageError",
        "UnsupportedAlphaError", "embedded_table",
    ],
}


def test_all_lists_the_pinned_exports_once():
    names = [n for names in EXPORTS.values() for n in names]
    assert len(names) == 52
    assert tcvm.__all__ == sorted(names)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in EXPORTS.items() for n in names]
)
def test_export_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"tcvm.{module}")
    assert getattr(tcvm, name) is getattr(home, name)
    assert name in dir(tcvm)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tcvm.no_such_name
    assert not hasattr(tcvm, "__no_such_dunder__")


def test_fresh_import_resolves_submodules_and_star_import():
    # a subprocess, because this process has imported every submodule already
    src = os.path.dirname(os.path.dirname(os.path.abspath(tcvm.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import tcvm\n"
        f"for name in {MODULES!r}:\n"
        "    assert getattr(tcvm, name[5:]) is sys.modules[name], name\n"
        "assert isinstance(tcvm.engine._BLOCK, int)\n"
        "namespace = {}\n"
        "exec('from tcvm import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == tcvm.__all__\n"
        "from tcvm import estimate_power\n"
        "assert estimate_power is tcvm.engine.estimate_power\n"
        "print('ok')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
