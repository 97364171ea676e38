"""The failure rule: bad input raises InvalidSpecError (CLI exit 2), a failed
stage raises EstimationError or numpy's LinAlgError (exit 3), and the CLI's
own CliError carries its exit code.  No module raises anything else."""

import ast
import pathlib

import wiener_gobf
from wiener_gobf import errors

PACKAGE = pathlib.Path(wiener_gobf.__file__).parent
RAISABLE = {"InvalidSpecError", "EstimationError", "np.linalg.LinAlgError"}


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ast.dump(node)


def test_every_raise_is_one_of_the_failure_classes():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = RAISABLE | ({"CliError"} if path.name == "cli.py" else set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _dotted(exc) not in allowed:
                    strays.append(f"{path.name}:{node.lineno} {_dotted(exc)}")
    assert strays == []


def test_errors_defines_two_exception_classes():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__
               and issubclass(obj, Exception) and not issubclass(obj, Warning)}
    assert defined == {"InvalidSpecError", "EstimationError"}
