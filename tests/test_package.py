"""The package API is the union of its modules' __all__ lists."""
import importlib
import subprocess
import sys

import vropt

MODULES = ["averaging", "dataset", "harness", "problems", "rates", "solvers",
           "trace"]

# helpers the modules share, imported by module path and not part of the
# package API
MODULE_PATH_ONLY = [("averaging", "SCHEMES"), ("averaging", "decay_rate"),
                    ("harness", "check_experiment"), ("rates", "SCHEME_RATES"),
                    ("solvers", "ALGORITHMS"), ("solvers", "check_config"),
                    ("solvers", "positive"),
                    ("trace", "config_id_flaw")]


def test_package_api_is_the_union_of_the_module_lists():
    lists = [importlib.import_module(f"vropt.{m}").__all__ for m in MODULES]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names)), "a name in two module lists"
    assert sorted(vropt.__all__) == sorted(names + ["__version__"])
    for module, names in zip(MODULES, lists):
        for name in names:
            assert getattr(vropt, name) is getattr(
                importlib.import_module(f"vropt.{module}"), name)
    # a fresh interpreter: the tests import more submodules in this one
    public = subprocess.run(
        [sys.executable, "-c", "import vropt; print(*dir(vropt))"],
        capture_output=True, text=True, check=True).stdout.split()
    assert {n for n in public if not n.startswith("_")} == \
        set(vropt.__all__) - {"__version__"} | set(MODULES)


def test_shared_helpers_stay_out_of_the_package_api():
    for module, name in MODULE_PATH_ONLY:
        assert hasattr(importlib.import_module(f"vropt.{module}"), name)
        assert name not in vropt.__all__ and not hasattr(vropt, name)
