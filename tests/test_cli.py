import ast
import itertools
import json
import multiprocessing
import os
import re
import shlex
import stat
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import tnlab
from tnlab import intervals, tn
from tnlab.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


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
    # x is checked before any log of it is taken or any table is built
    for argv, message in [
        (["construct", "--x", "2"], "x must be >= 3"),
        (["construct", "--x", "1"], "x must be >= 3"),
        (["construct", "--x", "0", "--y", "2", "--L", "5"], "x must be >= 3"),
        (["dist", "--x", "1", "--c", "0.5"], "x must be >= 2"),
        (["dist", "--x", "100", "--c", "1.5"], "each c must lie in (0, 1], got 1.5"),
        (["interval", "--lo", "1", "--hi", "6", "--y", "0", "--brute"],
         "smoothness bound must be >= 1"),
        # 1 has no prime factor: the span is checked first
        (["select-omega", "--bs", "1,1,1", "--J", "0"], "span must be >= 1"),
        # every subcommand that takes --workers checks it, whether or not it uses it
        (["scan", "--lo", "2", "--hi", "10", "--workers", "0"], "workers must be >= 1, got 0"),
        (["scan", "--lo", "2", "--hi", "40", "--witness", "--workers", "-3"],
         "workers must be >= 1, got -3"),
        (["dist", "--x", "100", "--c", "0.5", "--workers", "0"], "workers must be >= 1, got 0"),
        (["conjecture", "--x", "100", "--c", "0.5", "--workers", "-2"],
         "workers must be >= 1, got -2"),
        # a limit of 0 is a limit, not an absent one
        (["runge", "--offsets", "0,1,2,3", "--limit", "0"], "x_limit must be >= 1"),
        (["runge", "--offsets", "0,1,2,3", "--limit", "-5"], "x_limit must be >= 1"),
    ]:
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"tnlab: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["tn", "--n", "7", "--cap", "3", "--no-shortcut"],
     "no witness for n=7 within cap=3 (3 offsets inserted, basis rank 2)"),
    (["tn", "--n", "1000000007", "--cap", "200", "--no-shortcut"],
     "no witness for n=1000000007 within cap=200 (200 offsets inserted, basis rank 200)"),
])
def test_capped_tn_reports_the_rank_of_the_successors_alone(capsys, argv, message):
    # a span search's basis holds its target too, as insertion 0: the rank
    # it reports is that of the offsets inserted, without the target's row
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"tnlab: error: {message}\n")


def test_select_omega_of_a_large_power(tmp_path):
    # trial division reads no more primes than the cofactor left needs:
    # 2^100 once sieved the primes up to 2^50
    out = tmp_path / "omega.json"
    assert run_cli(["select-omega", "--bs", str(2 ** 100) + ",3,5", "--J", "13",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["omegas"] == [1, 1, 1]


@pytest.mark.parametrize("argv", [
    ["scan", "--lo", "2", "--hi", "40", "--witness", "--workers", "0"],
    ["scan", "--lo", "2", "--hi", "40", "--witness", "--workers", "-3"],
    # the primes up to y are past the prime array's ceiling
    ["interval", "--lo", "1", "--hi", "6", "--y", str(10 ** 10), "--brute"],
])
def test_resource_and_worker_errors_exit_code(capsys, argv):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("tnlab: error:")


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


@pytest.mark.parametrize("argv", [
    ["scan", "--lo", "2", "--hi", "1200"],
    ["scan", "--lo", "2", "--hi", "600", "--witness", "--format", "json"],
    ["dist", "--x", "3000", "--c", "0.3", "--c", "0.5", "--c", "1.0"],
    ["conjecture", "--x", "3000", "--c", "0.5"],
])
def test_workers_change_no_byte_but_their_own_line(tmp_path, capsys, argv):
    # two workers cut each range into chunks of 256 in two processes; the
    # files are those of one worker, apart from the workers line that
    # dist and conjecture record
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run_cli(argv + ["--workers", "1", "--out", str(one)]) == 0
    assert run_cli(argv + ["--workers", "2", "--out", str(two)]) == 0
    capsys.readouterr()
    renamed = read(one).replace(b"# workers=1\n", b"# workers=2\n")
    assert renamed.replace(b'"workers": 1', b'"workers": 2') == read(two)
    assert (read(one) != read(two)) == (argv[0] != "scan")


def test_scan_writes_each_chunk_as_it_comes(tmp_path, peak_growth_mb):
    # one chunk of 64,000 rows is rendered at a time: the process grew by
    # 19 MB measured, against 50 MB when every row was rendered and joined
    # before the write
    out = tmp_path / "scan.csv"
    growth = peak_growth_mb(
        f"from tnlab.cli import main\nassert main(['scan', '--lo', '2', '--hi', '3000', "
        f"'--out', {str(out)!r}]) == 0",
        f"assert main(['scan', '--lo', '2', '--hi', '1000000', '--out', {str(out)!r}]) == 0")
    assert growth < 32
    # read a line at a time: the million rows held as one list would raise
    # this process's own peak, which getrusage counts in every child it
    # starts afterwards (test_engine's memory bound reads it so)
    with out.open("rb") as rows:
        eighth = next(itertools.islice(rows, 7, None))
        count, last = 8, eighth
        for count, last in enumerate(rows, 9):
            pass
    assert count == 6 + 1 + 999999  # the config, the header and the rows
    assert eighth.rstrip() == b"2,4,false," and last.startswith(b"1000000,")


@pytest.mark.parametrize("argv", [
    ["scan", "--lo", "5", "--hi", "2"],
    ["scan", "--lo", "2", "--hi", "10", "--cap", "0"],
    ["scan", "--lo", "2", "--hi", "40", "--witness", "--cap", "0", "--format", "json"],
    ["scan", "--lo", "2", "--hi", "10", "--workers", "0"],
    # rho(1/c) is tabulated for 1/c <= 50: refused before [1, x] is swept
    ["dist", "--x", "300000", "--c", "0.015"],
])
def test_a_scan_argument_error_writes_nothing(tmp_path, capsys, argv):
    assert run_cli(argv) == 2
    assert capsys.readouterr().out == ""
    assert run_cli(argv + ["--out", str(tmp_path / "scan")]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--y", "0", "--kernel"], "smoothness bound must be >= 1"),
    (["--y", "5"], "exceeds brute guard"),
])
def test_an_interval_argument_error_counts_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              flags, message):
    # refused before the 200,000 values near 10^9 are counted, which takes
    # minutes and more than a GB in kernel mode
    for name in ("_interval_counts", "enumerate_square_subsets", "parity_windows", "folded_rows"):
        monkeypatch.setattr(intervals, name, None)
    argv = ["interval", "--lo", "1000000000", "--hi", "1000200000", "--out",
            str(tmp_path / "interval.json")] + flags
    assert run_cli(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_failing_later_chunk_leaves_no_file(tmp_path, monkeypatch, in_process_pool):
    # two workers cut [2, 1000] into four chunks of 256 in this process;
    # past the first, every witness drops an offset, so the scan fails
    # after its first chunk is written: the file is not made, and an older
    # one stays as it was
    real_lines, real_bits = tn._lines, tn.mask_bits

    def lines(a, b, *args):
        if a > 2:
            monkeypatch.setattr(tn, "mask_bits", lambda mask: real_bits(mask)[1:])
        return real_lines(a, b, *args)

    monkeypatch.setattr(tn, "_lines", lines)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "scan.csv"
    argv = ["scan", "--lo", "2", "--hi", "1000", "--witness", "--workers", "2", "--out", str(out)]
    for older in (None, b"older\n"):
        monkeypatch.setattr(tn, "mask_bits", real_bits)
        if older:
            out.write_bytes(older)
        with pytest.raises(AssertionError, match="the witness does not make a square") as e:
            run_cli(argv)
        assert int(re.match(r"n = (\d+):", str(e.value))[1]) > 257
        assert list(tmp_path.iterdir()) == ([out] if older else [])
        assert not older or read(out) == older
    assert in_process_pool == [2, 2]


def test_out_may_name_a_pipe(tmp_path):
    # a pipe is written in place, not replaced by a file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(["scan", "--lo", "2", "--hi", "40", "--out", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert run_cli(["scan", "--lo", "2", "--hi", "40", "--out", str(tmp_path / "file")]) == 0
    assert got == read(tmp_path / "file")



def test_out_through_a_symlink_writes_its_target(tmp_path):
    # a symlink is written through, as /dev/stdout is: the link stays a
    # link and its target takes the output
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"older\n")
    link.symlink_to(target)
    assert run_cli(["scan", "--lo", "2", "--hi", "40", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert run_cli(["scan", "--lo", "2", "--hi", "40", "--out", str(tmp_path / "file")]) == 0
    assert read(target) == read(tmp_path / "file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link", "target"]


def test_out_keeps_an_older_files_mode_and_names(tmp_path):
    # an older file with one name is replaced whole, with its mode; one
    # with a second name is written in place, so both names see the output
    out, other = tmp_path / "one", tmp_path / "two"
    out.write_bytes(b"older\n")
    out.chmod(0o640)
    assert run_cli(["scan", "--lo", "2", "--hi", "40", "--out", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    os.link(out, other)
    assert run_cli(["scan", "--lo", "2", "--hi", "50", "--out", str(out)]) == 0
    assert run_cli(["scan", "--lo", "2", "--hi", "50", "--out", str(tmp_path / "file")]) == 0
    assert os.path.samefile(out, other) and read(other) == read(tmp_path / "file")



def test_out_keeps_an_older_files_owner_and_directory(tmp_path):
    # a file of another owner, or one in a directory that cannot be
    # written, is written in place: the owner stays and no temporary file
    # is needed (root may write anywhere, so only the owner case runs as
    # root, and only the directory case runs as anyone else)
    d = tmp_path / "d"
    d.mkdir()
    out = d / "out"
    out.write_bytes(b"older\n")
    argv = ["scan", "--lo", "2", "--hi", "40", "--out"]
    assert run_cli(argv + [str(tmp_path / "fresh")]) == 0
    if os.geteuid() == 0:
        os.chown(out, 1, 1)
        assert run_cli(argv + [str(out)]) == 0
        assert (os.stat(out).st_uid, os.stat(out).st_gid) == (1, 1)
    else:
        d.chmod(0o555)
        try:
            assert run_cli(argv + [str(out)]) == 0
        finally:
            d.chmod(0o755)
    assert read(out) == read(tmp_path / "fresh")
    assert list(d.iterdir()) == [out]


_FORKED = multiprocessing.get_start_method() == "fork"


@pytest.mark.parametrize("argv", [
    ["tn", "--n", "14"],
    ["tn", "--n", "7297"],  # a prime: its witness ends at the partner of a jump
    ["scan", "--lo", "2", "--hi", "300", "--witness"],
    pytest.param(["scan", "--lo", "2", "--hi", "300", "--witness", "--workers", "2"],
                 marks=pytest.mark.skipif(not _FORKED, reason="workers see the patch only by fork")),
])
def test_a_corrupted_witness_is_never_emitted(tmp_path, monkeypatch, argv):
    # every witness is verified before the search returns it: one that drops
    # an offset stops the command, in a worker too, before it writes anything
    real = tn.mask_bits
    monkeypatch.setattr(tn, "mask_bits", lambda mask: real(mask)[1:])
    out = tmp_path / "out.csv"
    with pytest.raises(AssertionError, match=r"n = \d+: the witness does not make a square"):
        run_cli([*argv, "--out", str(out)])
    assert not out.exists()


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "tnlab.cli", "tn", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "t=4" in proc.stdout



def test_interval_kernel_writes_a_subset_count_of_any_length(tmp_path):
    # the kernel of (0, 20000] has dimension 17,738, so square_subset_count
    # = 2^17738 has 5,340 decimal digits, past the int-to-str limit of 4300
    # that Python sets by default; the test reads it back as a Decimal,
    # which that limit does not cover
    out = tmp_path / "kernel.json"
    src = str(Path(tnlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "tnlab.cli", "interval", "--lo", "0", "--hi",
                           "20000", "--y", "10", "--kernel", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(), parse_int=Decimal)["result"]
    assert result["closed_count"] == 17738
    assert result["square_subset_count"] == 2 ** int(result["closed_count"])


# runs tnlab.cli.main on its arguments, then prints its own VmHWM in kB
PEAK_CLI_CHILD = """
import sys
import tnlab.cli
code = tnlab.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_interval_kernel_near_10_9_counts_its_kernel_in_bounded_memory(tmp_path):
    # 80,000 values near 10^9 run past the saturation of the small basis
    # (pi(31623) = 3401 pivots, full at about the 61,000th value), where
    # the dimension is counted from tags alone, and the report writes
    # 2^21416, past the default int-to-str limit; the whole child process,
    # interpreter and numpy included, stays under 120 MB
    out = tmp_path / "kernel.json"
    src = str(Path(tnlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", PEAK_CLI_CHILD, "interval", "--lo", "1000000000",
                           "--hi", "1000080000", "--y", "1000", "--kernel", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(), parse_int=Decimal)["result"]
    assert result["closed_count"] == 21416
    assert result["square_subset_count"] == 2 ** 21416
    assert result["identity_ok"] is True
    assert int(proc.stdout) < 120 * 1024


NO_MPMATH_CHILD = """
import json, sys
import tnlab, tnlab.cli
assert "mpmath" not in sys.modules, "importing tnlab imported mpmath"
for argv in json.loads(sys.argv[1]):
    assert tnlab.cli.main(argv) == 0
assert "mpmath" not in sys.modules, "a command imported mpmath"
"""


def test_running_tnlab_never_imports_mpmath(tmp_path, capsys):
    # thresholds and height bounds are evaluated in decimal, so dist, pell
    # and bounds run without mpmath and write the bytes they write in this
    # process
    argvs = [["dist", "--x", "2000", "--c", "0.5", "--c", "0.65"],
             ["pell", "--J", "48"],
             ["bounds", "--kind", "tn-lower", "--n", "1000"]]
    child = [argv + ["--out", str(tmp_path / f"child_{argv[0]}")] for argv in argvs]
    src = str(Path(tnlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_MPMATH_CHILD, json.dumps(child)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for argv in argvs:
        ours = tmp_path / f"ours_{argv[0]}"
        assert run_cli(argv + ["--out", str(ours)]) == 0
        assert read(tmp_path / f"child_{argv[0]}") == read(ours)
    capsys.readouterr()


def test_the_package_imports_numpy_and_the_standard_library_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    allowed = sys.stdlib_module_names | {"numpy", "tnlab"}
    for path in sorted(Path(tnlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports name tnlab itself
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]


def _readme_block(heading: str) -> list[str]:
    """The lines of the first fenced block after a README heading."""
    text = (REPO / "README.md").read_text()
    rest = text[text.index(f"\n## {heading}\n"):].split("```")
    return rest[1].splitlines()[1:]


def test_readme_examples_run():
    parser = build_parser()
    lines = [line.split("  #")[0].strip() for line in _readme_block("CLI")]
    assert lines and all(line.startswith("tnlab ") for line in lines)
    for line in lines:
        bare = re.sub(r"\s*\[[^]]*\]", "", line)
        full = line.replace("[", "").replace("]", "")
        for argv in {bare, full}:
            parser.parse_args(shlex.split(argv)[1:])
    exec("\n".join(_readme_block("Library example")), {})
