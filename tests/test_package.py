"""The package API is the union of its modules' __all__ lists, every name
the benchmark's tracer patches exists, and the number rule has one home."""
import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import vropt

MODULES = ["averaging", "dataset", "harness", "problems", "rates", "rules",
           "solvers", "trace"]

# helpers the modules share, imported by module path and not part of the
# package API
MODULE_PATH_ONLY = [("averaging", "SCHEMES"), ("averaging", "decay_rate"),
                    ("harness", "check_experiment"), ("rates", "SCHEME_RATES"),
                    ("rules", "real"), ("rules", "integer"),
                    ("rules", "positive"), ("rules", "nonnegative"),
                    ("solvers", "ALGORITHMS"), ("solvers", "check_config"),
                    ("solvers", "positive"), ("trace", "config_id_flaw")]

SRC = Path(__file__).resolve().parents[1] / "src" / "vropt"


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


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/tracing.py patches these names on vropt's modules and
    # problem instances; one that is renamed or deleted stops the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing._SPANNED + tracing._LEAVES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    for method in tracing._PROBLEM_METHODS:
        assert callable(getattr(vropt.LogisticProblem, method, None)), method


def test_the_error_a_rule_raises_is_one_object_everywhere():
    from vropt import rules, solvers
    assert vropt.ConfigError is solvers.ConfigError is rules.ConfigError


# the two spellings of "is this a number" that the rule module owns
_RULE_NAMES = {("operator", "index"), ("numbers", "Real")}


def _rule_uses(tree: ast.AST) -> list[str]:
    """Each operator.index or numbers.Real that tree names, as an
    attribute or imported by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                (node.value.id, node.attr) in _RULE_NAMES:
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: from {node.module} import "
                      f"{alias.name}" for alias in node.names
                      if (node.module, alias.name) in _RULE_NAMES]
    return found


def test_the_number_rule_has_one_home():
    # every module reads a caller's number through vropt.rules; a second
    # conversion of its own is the drift this guards against
    assert _rule_uses(ast.parse((SRC / "rules.py").read_text()))
    for path in sorted(SRC.glob("*.py")):
        if path.name != "rules.py":
            assert not _rule_uses(ast.parse(path.read_text())), path.name
    assert _rule_uses(ast.parse("from numbers import Real\nimport operator\n"
                                "operator.index(3)\n")) == [
        "line 1: from numbers import Real", "line 3: operator.index"]
