import argparse
import contextlib
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from implattice import algebra, cli, formulas, poset
from implattice.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- enumerate -----------------------------------------------------------------


def test_enumerate_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == doc["bell"] == 5
    assert len(doc["lattices"]) == 5
    assert doc["lattices"][0] == {"n": 2, "base": [], "blocks": [[0], [1]]}


def test_enumerate_zero(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert out.splitlines() == ['{"n":0,"base":[],"blocks":[]}', "count=1 bell=1 ok"]


def test_enumerate_text_three(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[-1] == "count=15 bell=15 ok"


def test_enumerate_cap(capsys):
    code = main(["enumerate", "--n", "9"])
    capsys.readouterr()
    assert code == 2


# --- mobius --------------------------------------------------------------------


def test_mobius_full_interval(capsys):
    code, out = run_cli(capsys, "mobius", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_oracle"] == doc["mu_product_formula"] == "-6"
    assert doc["agree"] is True


def test_mobius_lower_equals_upper(capsys):
    lower = '{"n":2,"base":[0],"blocks":[[1]]}'
    code, out = run_cli(capsys, "mobius", "--lower", lower, "--upper", lower, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_oracle"] == "1"
    assert doc["mu_product_formula"] is None


def test_mobius_chain_interval(capsys):
    code, out = run_cli(capsys, "mobius", "--lower", '{"n":2,"base":[0],"blocks":[[1]]}')
    assert code == 0
    assert "mu_oracle=-1" in out
    assert "mu_product_formula=-1" in out
    assert "agree=yes" in out


def test_single_query_builds_no_per_n_order(capsys, cold_caches):
    # a CLI query walks its own interval; the sweeps' per-n order would
    # enumerate all Bell(9) = 21 147 sublattices of B_8 for a two-member answer
    lower = algebra.lattice_to_json(algebra.principal_ultrafilter(8, 0))
    code, out = run_cli(capsys, "mobius", "--lower", lower)
    assert code == 0
    assert "mu_oracle=-1" in out
    assert poset._order.cache_info().currsize == 0
    assert poset._slice.cache_info().currsize == 0
    assert algebra.enumerate_all.cache_info().currsize == 0


def test_mobius_incomparable_is_usage_error(capsys):
    code = main(
        [
            "mobius",
            "--lower",
            '{"n":2,"base":[],"blocks":[[0],[1]]}',
            "--upper",
            '{"n":2,"base":[0,1],"blocks":[]}',
        ]
    )
    capsys.readouterr()
    assert code == 2


def test_mobius_past_the_cap(capsys):
    # n = 24 with --override-cap: the interval above a base of 2 atoms and
    # eleven blocks of 2 has 10 240 members, and the walk reaches no other
    lower = {"n": 24, "base": [0, 1], "blocks": [[i, i + 1] for i in range(2, 24, 2)]}
    argv = ["mobius", "--lower", json.dumps(lower), "--override-cap", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["mu_oracle"], doc["mu_product_formula"], doc["agree"]) == ("-2", "-2", True)


def test_mobius_bad_json(capsys):
    assert main(["mobius", "--lower", "{not json"]) == 2
    capsys.readouterr()
    assert main(["mobius", "--lower", '{"n":2,"base":[0],"blocks":[[0]]}']) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "lower",
    [
        '{"n":2,"base":null,"blocks":[[0],[1]]}',
        '{"n":2,"base":[],"blocks":7}',
        '{"n":2,"base":["0"],"blocks":[[1]]}',
        '{"n":2,"base":[0],"blocks":[[1.0]]}',
        '{"n":true,"base":[],"blocks":[[0]]}',
        '{"n":2,"base":[0,0],"blocks":[[1]]}',
        '{"n":3,"base":[],"blocks":[[2],[1,0]]}',
        '{"n":3,"base":[],"blocks":[[2],[0,1]]}',
        '{"n":2,"base":[0],"blocks":[[1]],"extra":0}',
        '{"n":2,"n":2,"base":[0],"blocks":[[1]]}',
    ],
)
def test_mistyped_lattice_fields_are_usage_errors(capsys, lower):
    assert main(["mobius", "--lower", lower]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse --lower")


@pytest.mark.parametrize(
    "command, flag, text",
    [("mobius", "--lower", "[" * 50000), ("export", "--upper", '{"a":' * 5000)],
    ids=["mobius-lower", "export-upper"],
)
def test_deeply_nested_lattice_json_is_usage_error(capsys, command, flag, text):
    assert main([command, flag, text]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {flag}")


@pytest.mark.parametrize("command", ["enumerate", "mobius", "export"])
def test_negative_n_is_usage_error(capsys, command):
    assert main([command, "--n", "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mobius", "export"])
@pytest.mark.parametrize("flag", ["--lower", "--upper"])
def test_json_n_is_capped_before_anything_is_built(capsys, command, flag):
    assert main([command, flag, '{"n":100000000,"base":[],"blocks":[]}']) == 2
    assert f"{flag} n 100000000 exceeds the safety cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mobius", "export"])
def test_interval_commands_need_n_or_an_end(capsys, command):
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need --lower/--upper or --n\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["mobius", "export"])
def test_conflicting_n_is_usage_error(capsys, command):
    lower = '{"n":2,"base":[0],"blocks":[[1]]}'
    assert main([command, "--n", "5", "--lower", lower]) == 2
    assert "--n 5 conflicts with n=2" in capsys.readouterr().err
    assert main([command, "--n", "2", "--lower", lower]) == 0
    capsys.readouterr()


# lattice objects: canonical ones at small n, and ones with wrong types,
# out-of-range atoms, extra keys or an n far above the cap
_junk = st.sampled_from([None, True, False, 1.0, -0.5, "0", "", [], {}])
_atom_lists = st.one_of(st.lists(st.integers(-2, 5) | _junk, max_size=4), _junk)
_canonical = st.integers(0, 4).flatmap(
    lambda n: st.sampled_from([algebra.lattice_to_dict(A) for A in algebra.enumerate_all(n)])
)
_arbitrary = st.one_of(
    st.fixed_dictionaries(
        {
            "n": st.one_of(st.integers(-2, 4), st.integers(9, 10**30), _junk),
            "base": _atom_lists,
            "blocks": st.one_of(st.lists(_atom_lists, max_size=4), _junk),
        },
        optional={"extra": st.integers()},
    ),
    _junk,
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["mobius", "export"]),
    fmt=st.sampled_from(["json", "text/dot"]),
    lower=st.one_of(_canonical, _arbitrary),
    upper=st.one_of(st.none(), _canonical, _arbitrary),
)
def test_cli_exit_contract_on_arbitrary_lattice_json(command, fmt, lower, upper):
    # "--flag=value" keeps a JSON value like -1 from reading as an option
    argv = [command, f"--lower={json.dumps(lower)}"]
    if upper is not None:
        argv.append(f"--upper={json.dumps(upper)}")
    if fmt == "json":
        argv += ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")  # --hypothesis-show-statistics shows the split
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    elif fmt == "json":
        json.loads(out.getvalue())
    elif command == "mobius":
        assert out.getvalue().startswith("mu_oracle=")
    else:
        assert out.getvalue().startswith("digraph hasse {\n")
        assert out.getvalue().endswith("}\n")


# --- verify ---------------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["claims"] == len(doc["verdicts"])
    assert all(v["pass"] for v in doc["verdicts"])


def test_verify_text_lines(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "method2", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("summary:")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert any("method2.printed_value_erratum" in line for line in lines)


def test_verify_bad_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus", "--n-max", "2"])
    capsys.readouterr()
    assert err.value.code == 2


def test_verify_deterministic_output(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "all", "--n-max", "3", "--format", "json")
    _, second = run_cli(capsys, "verify", "--suite", "all", "--n-max", "3", "--format", "json")
    assert first == second


def test_verify_math_failure_exits_one(capsys, monkeypatch):
    # force one identity claim to disagree and check the exit-code contract
    monkeypatch.setattr(formulas, "mu_top_closed_form", lambda n: 999)
    code = main(["verify", "--suite", "method2", "--n-max", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL method2.corrected_identity" in out


def test_verify_failing_sweep_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "mobius_product_formula", formulas.mobius_product_formula_printed)
    code = main(["verify", "--suite", "method1", "--n-max", "2"])
    assert code == 1
    assert "FAIL method1.formula_vs_oracle n=2 cases=5 lhs=5 rhs=3" in capsys.readouterr().out


# --- identity and table -----------------------------------------------------------


def test_identity_table(capsys):
    code, out = run_cli(capsys, "identity", "--n-max", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert [r["closed_form"] for r in doc["rows"]] == ["-1", "2", "-6", "24", "-120"]
    assert [r["printed"] for r in doc["rows"]] == ["-1", "1", "-2", "6", "-24"]


def test_identity_text_alignment(capsys):
    code, out = run_cli(capsys, "identity", "--n-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert len({len(line) for line in lines}) == 1  # fixed-width rows


def test_identity_cap(capsys):
    assert main(["identity", "--n-max", "101"]) == 2
    capsys.readouterr()
    code, out = run_cli(capsys, "identity", "--n-max", "101", "--override-cap", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


@pytest.mark.parametrize(
    "name, bad_n, cell, flag, claim",
    [
        ("mu_top_closed_form", 2, "closed_form", "corrected_ok", "method2.corrected_identity"),
        ("chain_sum_printed", 3, "printed", "printed_ok", "method2.printed_value_erratum"),
    ],
    ids=["closed_form", "printed"],
)
def test_identity_reports_the_method2_verdicts(capsys, monkeypatch, name, bad_n, cell, flag, claim):
    # identity prints the sides of the two method2 claims, so a formula off by
    # one at bad_n shows in that row's cell and flag alone, where verify fails
    right = getattr(formulas, name)
    monkeypatch.setattr(formulas, name, lambda n: right(n) + (n == bad_n))
    code, out = run_cli(capsys, "identity", "--n-max", "3", "--format", "json")
    doc = json.loads(out)
    assert (code, doc["all_ok"]) == (1, False)
    for row in doc["rows"]:
        faulty = row["n"] == bad_n
        assert row[cell] == str(right(row["n"]) + faulty)
        flags = {"corrected_ok": True, "printed_ok": True} | ({flag: False} if faulty else {})
        assert {key: row[key] for key in flags} == flags
    code, out = run_cli(capsys, "identity", "--n-max", "3")
    header, *lines = [line.split() for line in out.splitlines()]
    assert code == 1
    assert [line[-1] for line in lines] == ["NO" if n == bad_n else "yes" for n in (1, 2, 3)]
    assert lines[bad_n - 1][header.index(cell)] == str(right(bad_n) + 1)
    code, out = run_cli(capsys, "verify", "--suite", "method2", "--n-max", "3")
    assert code == 1
    assert [line.split()[:3] for line in out.splitlines() if line.startswith("FAIL")] == [
        ["FAIL", claim, f"n={bad_n}"]
    ]


def test_table_single_n(capsys):
    code, out = run_cli(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    row = next(r for r in doc["rows"] if r["k"] == 2)
    assert row["chain"] == row["composition"] == row["oracle"] == "11"
    assert next(r for r in doc["rows"] if r["k"] == 4)["chain"] == "1"


def test_table_oracle_column_capped(capsys):
    code, out = run_cli(capsys, "table", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(r["oracle"] is None for r in doc["rows"])
    assert all(r["composition"] is not None for r in doc["rows"])


def test_table_needs_exactly_one_bound(capsys):
    assert main(["table"]) == 2
    capsys.readouterr()
    assert main(["table", "--n", "3", "--n-max", "4"]) == 2
    capsys.readouterr()


def test_table_k_filter(capsys):
    code, out = run_cli(capsys, "table", "--n-max", "6", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["chain"] for r in doc["rows"]] == ["1", "-1", "2", "-6", "24", "-120"]
    # a sweep with k > 1 starts at n = k instead of failing
    code, out = run_cli(capsys, "table", "--n-max", "5", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [(r["n"], r["chain"]) for r in doc["rows"]] == [
        (2, "1"),
        (3, "-3"),
        (4, "11"),
        (5, "-50"),
    ]
    assert main(["table", "--n", "3", "--k", "4"]) == 2
    capsys.readouterr()
    assert main(["table", "--n-max", "3", "--k", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-max", "12"],
        ["--n", "17"],  # past the composition cap: composition is null
        ["--n", "6"],  # past the oracle cap: oracle is null
        ["--n-max", "6", "--k", "2"],
    ],
)
def test_table_json_is_the_indented_encoding(capsys, argv):
    # the table's schema renderer must print json.dumps(doc, indent=2) exactly
    code, out = run_cli(capsys, "table", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_table_json_renders_a_mismatch(capsys, monkeypatch):
    real = formulas.mu_rank_sum_composition
    monkeypatch.setattr(cli, "mu_rank_sum_composition", lambda k, n: real(k, n) + (k == 2))
    code, out = run_cli(capsys, "table", "--n-max", "4", "--format", "json")
    assert code == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert {r["k"] for r in doc["rows"] if r["match"] is False} == {2}


@pytest.mark.parametrize("bound", ["--n", "--n-max"])
def test_table_k_above_largest_n_is_usage_error(capsys, bound):
    assert main(["table", bound, "3", "--k", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 <= k <= 3" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["table", "--n", "0"], ["table", "--n-max", "0"], ["identity", "--n-max", "0"]],
    ids=" ".join,
)
def test_arithmetic_tables_need_n_at_least_one(capsys, argv):
    # the chain sums start at n = 1: an empty table would claim every check
    # passed on nothing
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert main([*argv[:-1], "-1"]) == 2
    assert capsys.readouterr().out == ""


HUGE = str(10**20)  # past 2**64: no shift reaches it, and it fails before anything is allocated


@pytest.mark.parametrize(
    "argv",
    [
        ["mobius", "--n", HUGE],
        ["export", "--n", HUGE],
        ["enumerate", "--n", HUGE],
        ["mobius", "--lower", f'{{"n": {HUGE}, "base": [], "blocks": []}}'],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_n_past_any_shift_is_a_usage_error(capsys, argv):
    # --override-cap lifts the caps, and an n that no shift can reach is still
    # a usage error, not an OverflowError traceback with exit code 1
    assert main([*argv, "--override-cap"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n is too large: ")
    assert captured.err.count("\n") == 1


def test_running_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # past the caps a command can run out of memory before any shift fails;
    # that is exit 2 with one error line, not 1 with a MemoryError traceback.
    # The handler raises it here, so the test allocates nothing
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_mobius", exhausted)
    assert main(["mobius", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n is too large: out of memory\n"


# --- export --------------------------------------------------------------------


def test_export_dot(capsys):
    code, out = run_cli(capsys, "export", "--n", "2")
    assert code == 0
    assert out.count("[label=") == 5
    assert out.count("->") == 6


def test_export_single_node(capsys):
    lower = '{"n":2,"base":[0],"blocks":[[1]]}'
    code, out = run_cli(capsys, "export", "--lower", lower, "--upper", lower)
    assert code == 0
    assert out.count("[label=") == 1
    assert out.count("->") == 0


def test_export_json(capsys):
    code, out = run_cli(capsys, "export", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["members"]) == 15


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["export", "--n", "6", "--format", "json"],
            "c611e11611776ae603e4e6a49eb5cf3e92ae9d7b81658a5d39803e0820643640",
        ),
        (
            ["export", "--n", "4", "--format", "dot"],
            "f3bf3849e12980a492df94520c26a6d7f1393dd5a49bebbaad6f3d29ef3d12e8",
        ),
        (
            ["export", "--n", "7", "--format", "json"],
            "ca55993c0745c5efe5de3a92996ba93ed915b64550e78272709f8cb694827ea2",
        ),
    ],
)
def test_export_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the whole stdout, trailing newline included
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file_newline_terminated(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["verify", "--suite", "pkb", "--n-max", "2", "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = target.read_bytes()
    assert data.endswith(b"\n")
    assert json.loads(data)["summary"]["failed"] == 0


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target):
    # a missing parent directory, and a directory as the target
    path = tmp_path / target
    assert main(["enumerate", "--n", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {path}")
    assert "Traceback" not in captured.err


def test_empty_out_is_usage_error(capsys):
    # an empty --out is a path that cannot be opened, not a request for stdout
    assert main(["enumerate", "--n", "2", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out :")
    assert captured.err.count("\n") == 1


def spawn(*argv, stdout=subprocess.PIPE):
    """``python -m implattice ARGV`` in a child process that finds the package
    in this checkout's src, installed or not, with its stdout buffered as it
    is by default, whatever this process's environment says."""
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "implattice", *argv]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def test_python_m_implattice_exits_by_the_contract(capsys):
    # the codes and streams of the real process exit, through the process entry
    proc = spawn("enumerate", "--n", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(capsys, "enumerate", "--n", "1")[1]
    assert proc.stdout.splitlines()[-1] == "count=2 bell=2 ok"
    proc = spawn("enumerate", "--n", "9")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: n 9 exceeds the safety cap")


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--n", "1"), ("enumerate", "--n", "7"), ("verify", "--n-max", "3")],
    ids=" ".join,
)
def test_closed_stdout_is_a_usage_error(argv):
    # a pipe nobody reads: the write (a large output) or main's flush (a
    # small one) fails, not the exit's own flush, which would print
    # "Exception ignored" and exit 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = spawn(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: Broken pipe\n"


def test_console_script_is_the_entry_the_main_module_calls(monkeypatch):
    # pyproject's ``implattice`` script and ``python -m implattice`` name one
    # function, so both processes end through the same entry
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["implattice"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
    calls = []

    def recording():
        calls.append(name)
        return 7

    monkeypatch.setattr(sys.modules[module], name, recording)
    with pytest.raises(SystemExit) as err:
        runpy.run_module("implattice", run_name="__main__")
    assert (calls, err.value.code) == ([name], 7)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_output_digests():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(_subparsers()))
def test_every_subcommand_runs_its_own_handler(name):
    # each subparser sets its handler itself: its minimal arguments, every
    # required option given 1, select cmd_<name>
    required = [a.option_strings[0] for a in _subparsers()[name]._actions if a.required]
    args = cli.build_parser().parse_args([name, *(x for opt in required for x in (opt, "1"))])
    assert args.run is getattr(cli, f"cmd_{name}")


def test_output_digest_commands_parse():
    # scripts/output_digests.py runs these in subprocesses; a command the
    # parser rejects would only show there as a usage error
    digests = load_output_digests()
    parser = cli.build_parser()
    assert digests.CLI_COMMANDS and digests.N8_COMMANDS
    for argv in digests.CLI_COMMANDS + digests.N8_COMMANDS:
        parser.parse_args(list(argv))
    for script, *_ in digests.SCRIPT_COMMANDS:
        assert (ROOT / script).is_file()


# the listed outputs whose cold run takes 0.5 s or more: the n-max 6 and 7
# verify runs, the n = 8 intervals, the two walks past the cap at n = 24 and,
# with --n8, the n-max 8 verify run and the n = 9 interval
SLOW_OUTPUTS = ("--n-max 6", "--n-max 7", "--n-max 8", "--n 8", '{"n":8', '{"n":24', "--n 9")


def is_slow(label):
    return any(slow in label for slow in SLOW_OUTPUTS)


def in_process_stdout(capsys, monkeypatch, argv):
    """The stdout of the listing's subprocess ``argv``, produced in this
    process: ``python -m implattice ARGS`` through ``main``, a script
    through runpy with its own ``sys.argv``."""
    if argv[1] == "-m":
        assert main(argv[3:]) == 0
    else:
        monkeypatch.setattr(sys, "argv", argv[1:])
        monkeypatch.setattr(sys, "path", [*sys.path])  # the script prepends src
        runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
    return capsys.readouterr().out.encode()


def listing_mismatches(capsys, monkeypatch, digests):
    """What the committed listing does not reproduce: ``"labels"`` when its
    labels are not the script's, in order, and each fast output whose digest,
    recomputed in this process, differs from its committed line."""
    argvs = dict(digests.listing(n8=True))
    committed = [line.split("  ", 1) for line in digests.committed(n8=True)]
    bad = [] if [label for _, label in committed] == list(argvs) else ["labels"]
    for want, label in committed:
        if label in argvs and not is_slow(label):
            out = in_process_stdout(capsys, monkeypatch, argvs[label])
            if hashlib.sha256(out).hexdigest() != want:
                bad.append(label)
    return bad


def test_committed_digest_listing_holds(capsys, monkeypatch):
    # scripts/output_digests.txt is the script's listing, and its 17 fast
    # outputs recompute to their committed digests
    digests = load_output_digests()
    assert sum(not is_slow(label) for label, _ in digests.listing(n8=True)) == 17
    assert listing_mismatches(capsys, monkeypatch, digests) == []


def test_digest_listing_check_sees_an_altered_line_and_a_dropped_command(capsys, monkeypatch, tmp_path):
    # on a two-command listing: one committed digest altered, then one
    # command dropped from the script but kept in the file
    digests = load_output_digests()
    kept = (("identity", "--n-max", "3"), ("table", "--n", "4"))
    monkeypatch.setattr(digests, "CLI_COMMANDS", kept)
    monkeypatch.setattr(digests, "SCRIPT_COMMANDS", ())
    lines = []
    for label, argv in digests.listing(n8=False):
        lines.append(f"{hashlib.sha256(in_process_stdout(capsys, monkeypatch, argv)).hexdigest()}  {label}")
    lines += digests.committed(n8=True)[-len(digests.N8_COMMANDS) :]
    monkeypatch.setattr(digests, "LISTING", tmp_path / "listing.txt")
    digests.LISTING.write_text("\n".join(lines) + "\n")
    assert listing_mismatches(capsys, monkeypatch, digests) == []
    digests.LISTING.write_text("\n".join(["0" * 64 + lines[0][64:]] + lines[1:]) + "\n")
    assert listing_mismatches(capsys, monkeypatch, digests) == ["implattice identity --n-max 3"]
    digests.LISTING.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(digests, "CLI_COMMANDS", kept[:1])
    assert listing_mismatches(capsys, monkeypatch, digests) == ["labels"]


# --- collector -----------------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector(capsys, monkeypatch, enabled):
    # a run turns cyclic GC off, and gives the caller back the setting it
    # found, also after a usage error: one the command raises, or argparse's
    seen = []
    command = cli.cmd_enumerate

    def recording(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, "cmd_enumerate", recording)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["enumerate", "--n", "1"]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0  # only the process entry freezes
        assert main(["enumerate", "--n", "9"]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit) as err:
            main(["enumerate"])
        assert err.value.code == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
    capsys.readouterr()


def test_main_module_leaves_the_collector_off(capsys, monkeypatch):
    # ``python -m implattice`` ends the process when main returns, so it
    # turns the collector off first: main then hands back an off collector.
    # The interpreter's shutdown collections run anyway, so it also freezes
    # what is alive, and they skip that; here it is this process's, so the
    # cleanup thaws it
    monkeypatch.setattr(sys, "argv", ["implattice", "enumerate", "--n", "1"])
    try:
        with pytest.raises(SystemExit) as err:
            runpy.run_module("implattice", run_name="__main__")
        assert err.value.code == 0
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr().out.splitlines()[-1] == "count=2 bell=2 ok"


def cyclic_garbage(*argv):
    """The objects ``gc.collect()`` frees after one run of ``main``, with the
    collector off throughout, so that no automatic pass frees any first."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_run():
    # the library builds no reference cycles, so with the collector off a
    # run leaves the same garbage, the parser's, at any size
    assert cyclic_garbage("export", "--n", "3", "--format", "json") == cyclic_garbage(
        "export", "--n", "6", "--format", "json"
    )
    assert cyclic_garbage("verify", "--suite", "all", "--n-max", "3") == cyclic_garbage(
        "verify", "--suite", "all", "--n-max", "5"
    )


# --- operation coverage ------------------------------------------------------------


def test_verify_all_nmax4_exercises_every_operation(capsys, cold_caches):
    # run the full suite under a profiler and require one call (at least)
    # of every public operation of the core, poset, and formula modules;
    # memoized ones are keyed by the wrapped body, which runs only on a miss,
    # hence the cold caches
    targets = {
        algebra.complement,
        algebra.implies,
        algebra.meet,
        algebra.join,
        algebra.from_elements,
        algebra.elements,
        algebra.is_sub,
        algebra.enumerate_all,
        algebra.complement_closure,
        algebra.up_closure,
        algebra.is_boolean_subalgebra,
        algebra.is_ultrafilter,
        algebra.apply_atom_permutation,
        poset.interval,
        poset.mobius_oracle,
        poset.mobius_between,
        poset.closure_theorem_check,
        poset.closed_suborder,
        poset.product_decomposition,
        poset.interval_isomorphism_via_permutation,
        poset.maximal_chain_length,
        formulas.factorial,
        formulas.stirling2,
        formulas.bell,
        formulas.partition_mobius,
        formulas.mobius_product_formula,
        formulas.mobius_product_formula_printed,
        formulas.chain_sum_printed,
        formulas.chain_sum_corrected,
        formulas.mu_top_closed_form,
        formulas.mu_rank_sum_oracle,
        formulas.mu_rank_sum_chain,
        formulas.mu_rank_sum_composition,
        formulas.mu_rank_sum_composition_printed,
        formulas.rank_one_chain_identity,
    }
    codes = {inspect.unwrap(fn).__code__: fn for fn in targets}
    seen = set()

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.add(frame.f_code)

    sys.setprofile(tracer)
    try:
        code = main(["verify", "--suite", "all", "--n-max", "4", "--format", "json"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    missing = {fn.__name__ for c, fn in codes.items() if c not in seen}
    assert not missing, f"operations never exercised: {sorted(missing)}"
