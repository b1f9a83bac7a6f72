import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tnlab
from tnlab.cli import main

def run_cli(args):
    return main(args)


def read(path):
    return path.read_bytes()


def test_tn_prints_witness(capsys):
    assert run_cli(["tn", "--n", "14"]) == 0
    out = capsys.readouterr().out
    assert "t=7" in out
    assert "witness=[1, 4, 6, 7]" in out


def test_tn_csv_output(tmp_path, capsys):
    out = tmp_path / "tn.csv"
    assert run_cli(["tn", "--n", "14", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "n,t,shortcut_used,witness" in text
    assert "14,7,true,1;4;6;7" in text
    assert text.startswith("# ")  # config echo


def test_interval_json(tmp_path):
    out = tmp_path / "iv.json"
    assert run_cli(["interval", "--lo", "2", "--hi", "6", "--y", "5",
                    "--brute", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["closed_count"] == 1
    assert doc["result"]["square_subset_count"] == 2
    assert doc["config"]["lo"] == 2


def test_runge_subcommand(tmp_path):
    out = tmp_path / "runge.json"
    assert run_cli(["runge", "--offsets", "0,1,2,3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    f = doc["result"]["sqrt_part"]["scaled_coeffs"]
    assert f == [[1, 0], [3, 0], [1, 0]]
    assert doc["result"]["remainder"]["scaled_coeffs"] == [[-1, 0]]
    checks = doc["result"]["checks"]
    assert all(checks.values())


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bogus-subcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family_size", ["0", "1", "-3"])
def test_curve_point_family_below_two_exit_code(tmp_path, capsys, family_size):
    out = tmp_path / "cp.json"
    assert run_cli(["curve-point", "--x", "200000", "--c", "0.5", "--y", "30",
                    "--family-size", family_size, "--out", str(out)]) == 2
    assert "family_size must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_exit_code(capsys):
    assert run_cli(["scan", "--lo", "5", "--hi", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_unwritable_out(capsys):
    code = run_cli(["tn", "--n", "4", "--out", "/nonexistent-dir/x.csv"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["tn", "--n", "14", "--format", "json"],
    ["scan", "--lo", "2", "--hi", "40"],
    ["scan", "--lo", "2", "--hi", "40", "--format", "json", "--witness"],
    ["interval", "--lo", "1", "--hi", "6", "--y", "3", "--brute"],
    ["interval", "--lo", "1", "--hi", "40", "--y", "7", "--kernel"],
    ["dist", "--x", "300", "--c", "0.5", "--c", "0.8"],
    ["rho", "--u", "2.5", "--u", "3"],
    ["construct", "--x", "2000", "--y", "10", "--L", "60", "--delta", "0.1"],
    ["curve-point", "--x", "20000", "--c", "0.5", "--y", "25", "--L", "1500",
     "--seed", "11"],
    ["pell", "--J", "24"],
    ["bounds", "--kind", "integral-point", "--degree", "4", "--H", "10"],
    ["bounds", "--kind", "few-offsets", "--s", "2", "--J", "40"],
    ["bounds", "--kind", "tn-lower", "--n", "100000"],
    ["select-omega", "--bs", "30,77,13", "--J", "13"],
    ["runge", "--offsets", "0,1,2,4", "--limit", "50"],
    ["conjecture", "--x", "60", "--c", "0.5"],
])
def test_every_subcommand_is_deterministic(tmp_path, capsys, argv):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert read(a) == read(b)
    assert read(a).endswith(b"\n")
    assert b"\r" not in read(a)


def test_scan_workers_flag_matches_sequential(tmp_path, capsys):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(["scan", "--lo", "2", "--hi", "600", "--workers", "1",
                    "--out", str(a)]) == 0
    assert run_cli(["scan", "--lo", "2", "--hi", "600", "--workers", "2",
                    "--out", str(b)]) == 0
    capsys.readouterr()
    assert read(a) == read(b)


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "tnlab.cli", "tn", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "t=4" in proc.stdout



LAZY_MPMATH_CHILD = """
import json, sys
import tnlab, tnlab.cli
assert "mpmath" not in sys.modules, "importing tnlab imported mpmath"
for argv in json.loads(sys.argv[1]):
    assert tnlab.cli.main(argv) == 0
assert "mpmath" in sys.modules
"""


def test_importing_tnlab_leaves_mpmath_out(tmp_path, capsys):
    # mpmath is imported by the functions that use it, so a process that
    # runs tn, scan or curve-point never loads it; dist, pell and bounds
    # still write the bytes they write in this process
    argvs = [["dist", "--x", "2000", "--c", "0.5", "--c", "0.65"],
             ["pell", "--J", "48"],
             ["bounds", "--kind", "tn-lower", "--n", "1000"]]
    child = [argv + ["--out", str(tmp_path / f"child_{argv[0]}")] for argv in argvs]
    src = str(Path(tnlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LAZY_MPMATH_CHILD, json.dumps(child)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for argv in argvs:
        ours = tmp_path / f"ours_{argv[0]}"
        assert run_cli(argv + ["--out", str(ours)]) == 0
        assert read(tmp_path / f"child_{argv[0]}") == read(ours)
    capsys.readouterr()
