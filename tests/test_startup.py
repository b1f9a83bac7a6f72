"""Start-up: a process loads only the modules it runs. Each check runs in
a fresh child process, whose sys.modules starts empty of tnlab."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tnlab

SRC = Path(tnlab.__file__).resolve().parents[1]
PACKAGE = Path(tnlab.__file__).parent


def child(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tnlab') or m == 'numpy')))"


def test_importing_the_package_loads_no_module_and_no_numpy():
    assert json.loads(child(f"import json, sys\nimport tnlab\n{LOADED}")) == ["tnlab"]


def test_every_public_name_imports_from_the_package():
    code = ("import sys, tnlab\n"
            "assert tnlab.runge is sys.modules['tnlab.runge']\n"  # a submodule, on access
            "for name in tnlab.__all__:\n"
            "    exec(f'from tnlab import {name} as value')\n"
            "    assert value is getattr(sys.modules[value.__module__], name), name\n"
            "from tnlab import *\n"
            "from tnlab import heights\n"
            "print(len(tnlab.__all__))")
    assert int(child(code)) == len(tnlab.__all__) == 52
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tnlab.no_such_name


@pytest.mark.parametrize("argv, modules", [
    (["tn", "--n", "400006"], ["errors", "sieve", "gf2", "verify", "tn"]),
    (["pell", "--J", "12"], ["errors", "sieve", "heights"]),
    (["curve-point", "--x", "1000000", "--c", "0.5", "--seed", "0"],
     ["errors", "sieve", "gf2", "verify", "constructor"]),
])
def test_a_cli_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    out = tmp_path / "out"
    code = (f"import json, sys\nfrom tnlab.cli import main\n"
            f"assert main({argv + ['--out', str(out)]!r}) == 0\n{LOADED}")
    loaded = json.loads(child(code).splitlines()[-1])
    assert loaded == sorted(["numpy", "tnlab", "tnlab.cli"] + [f"tnlab.{m}" for m in modules])
    assert out.stat().st_size > 0


def test_the_constructor_does_not_load_tn():
    # the constructor checks its certificates with verify.verify_witness,
    # which imports no other tnlab module but errors, so it never compiles
    # tn's scans, sweeps and rendering
    code = f"import json, sys\nimport tnlab.constructor\n{LOADED}"
    assert json.loads(child(code)) == sorted(
        ["numpy", "tnlab"] + [f"tnlab.{m}" for m in ("constructor", "errors", "gf2", "sieve",
                                                     "verify")])


def test_no_module_imports_dataclasses():
    # a frozen dataclass costs about a millisecond to create at import;
    # records are NamedTuples, or slotted classes where a tuple's own
    # behaviour would change theirs
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"
