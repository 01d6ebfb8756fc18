import argparse
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from math import factorial, prod
from pathlib import Path

import pytest

import forestdom
from forestdom import cli, formulas, oracle
from forestdom.cli import main
from forestdom.degseq import DegreeSequence, validate
from forestdom.forest import Forest, read_forest


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_human(capsys):
    code, out, err = run(capsys, ["eval", "3,2,1,1,1"])
    assert code == 0
    assert err == ""
    assert out == "n=5 n0=0 n1=3 n_ge2=2 c=1 branch=A gamma_max=2 alpha_min=3\n"


def test_eval_validates_its_sequence_once(capsys, monkeypatch):
    calls = []

    def counting(degrees):
        calls.append(degrees)
        return validate(degrees)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(formulas, "validate", counting)
    code, _, _ = run(capsys, ["eval", "3,2,1,1,1"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, built",
    [(["verify", "3,2,1,1,1", "--json"], 1), (["sweep", "--max-n", "6", "--json"], 14)],
)
def test_each_sequence_is_built_once(capsys, monkeypatch, argv, built):
    # the parsed or swept sequence itself reaches the verify payload
    calls = []
    post_init = DegreeSequence.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(DegreeSequence, "__post_init__", counting)
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == built


def test_module_entry_point_runs_eval():
    # the package's parent directory, so an uninstalled checkout runs too
    root = str(Path(forestdom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "forestdom", "eval", "3,2,1,1,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stdout == "n=5 n0=0 n1=3 n_ge2=2 c=1 branch=A gamma_max=2 alpha_min=3\n"


def test_serial_commands_leave_the_process_pool_unimported():
    root = str(Path(forestdom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = """
import contextlib, io, sys
import forestdom.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert forestdom.cli.main(["eval", "3,2,1,1,1"]) == 0
    assert forestdom.cli.main(["sweep", "--max-n", "5"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, ["eval", "--json", "3 2 1 1 1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "sequence": [3, 2, 1, 1, 1],
        "n": 5,
        "n0": 0,
        "n1": 3,
        "n_ge2": 2,
        "c": 1,
        "branch": "A",
        "gamma_max": 2,
        "alpha_min": 3,
    }


def test_eval_with_zero_entries(capsys):
    code, out, _ = run(capsys, ["eval", "--json", "1,1,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "reduced"
    assert payload["gamma_max"] == 2
    assert payload["alpha_min"] == 2

    code, out, err = run(capsys, ["eval", "0,0"])
    assert code == 0
    assert err == ""
    assert out == "n=2 n0=2 n1=0 n_ge2=0 c=0 branch=reduced gamma_max=2 alpha_min=2\n"


def test_eval_rejects_bad_input(capsys):
    code, _, err = run(capsys, ["eval", "2,2"])
    assert code == 1
    assert "TooManyEdgesError" in err

    code, _, err = run(capsys, ["eval", "2,1"])
    assert code == 1
    assert "OddSumError" in err

    code, _, err = run(capsys, ["eval", "2,x,1"])
    assert code == 1


def test_build_solve_round_trip(capsys, tmp_path):
    path = str(tmp_path / "forest.json")
    code, out, _ = run(capsys, ["build", "--json", "2,2,1,1,1,1,1,1", path])
    assert code == 0
    built = json.loads(out)
    assert built["match"] is True
    assert built["gamma"] == built["expected_gamma_max"] == 4
    assert built["alpha"] == built["expected_alpha_min"] == 4

    loaded = read_forest(path)
    assert loaded.degree_sequence() == DegreeSequence((2, 2, 1, 1, 1, 1, 1, 1))

    code, out, _ = run(capsys, ["solve", "--json", path])
    assert code == 0
    solved = json.loads(out)
    assert solved["n"] == 8
    assert solved["gamma"] == 4
    assert solved["alpha"] == 4
    assert solved["gamma_max"] == 4
    assert solved["alpha_min"] == 4
    assert len(solved["gamma_witness"]) == 4
    assert len(solved["alpha_witness"]) == 4


def test_build_human_reports_match(capsys, tmp_path):
    path = str(tmp_path / "out.json")
    code, out, _ = run(capsys, ["build", "3,1,1,1", path])
    assert code == 0
    assert out.splitlines() == [
        f"wrote {path}",
        "gamma=1 expected=1",
        "alpha=3 expected=3",
        "certificate matches",
    ]


def test_solve_edgeless(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text('{"n": 3, "edges": []}')
    code, out, err = run(capsys, ["solve", "--json", str(path)])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["degree_sequence"] == [0, 0, 0]
    assert payload["gamma"] == payload["gamma_max"] == 3
    assert payload["alpha"] == payload["alpha_min"] == 3
    assert payload["gamma_witness"] == payload["alpha_witness"] == [0, 1, 2]


@pytest.mark.parametrize(
    "name, text",
    [("empty.json", Forest(0).to_json() + "\n"), ("empty.txt", "n 0\n")],
    ids=["json", "text"],
)
def test_solve_zero_vertices(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, ["solve", "--json", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "n": 0, "edge_count": 0, "degree_sequence": [],
        "gamma": 0, "gamma_witness": [], "alpha": 0, "alpha_witness": [],
        "gamma_max": 0, "alpha_min": 0,
    }
    code, out, err = run(capsys, ["solve", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n=0 edges=0",
        "degree_sequence=",
        "gamma=0 witness=[]",
        "alpha=0 witness=[]",
        "gamma_max=0 alpha_min=0",
    ]


def test_build_edgeless_is_a_precondition_error(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, ["build", "0,0", str(out_path)])
    assert code == 1
    assert out == ""
    assert "PreconditionError" in err
    assert not out_path.exists()


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "sequence", ["1_0,1,1,1,1,1,1,1,1,1,1", "\u0663,1,1,1", "\uff11,1", "+1,1"]
)
def test_eval_rejects_coerced_integer_text(capsys, sequence):
    # int() reads each as a valid sequence: 10 (a star) or 3 or 1
    code, out, err = run(capsys, ["eval", sequence])
    assert code == 1
    assert out == ""
    assert "unexpected character" in err


@pytest.mark.parametrize("sequence", ["1,,1", ",1,1,"])
def test_eval_rejects_empty_comma_fields(capsys, sequence):
    # both used to answer for 1,1 and exit 0
    code, out, err = run(capsys, ["eval", sequence])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: empty field ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["n 1_0\n", "n 2\n0 +1\n", "n \uff12\n0 1\n"])
def test_solve_rejects_coerced_integer_text(capsys, tmp_path, text):
    path = tmp_path / "forest.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert out == ""
    assert "ForestFormatError" in err and "unexpected character" in err


def test_solve_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3}')
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert "ForestFormatError" in err


def test_solve_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ForestFormatError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "name, text, kind",
    [
        ("huge.txt", "n 1000000000000000000000000000000\n", "OverflowError"),
        ("huge.json", '{"n": 4611686018427387904, "edges": []}', "MemoryError"),
    ],
    ids=["text", "json"],
)
def test_solve_oversize_vertex_count(capsys, tmp_path, name, text, kind):
    # both counts fail CPython's size checks before any memory is taken
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {kind}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_textless_memory_error_says_out_of_memory(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 4611686018427387904, "edges": []}')
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert err == "error: MemoryError: out of memory\n"


def test_verify_match(capsys):
    code, out, _ = run(capsys, ["verify", "--json", "2,2,1,1,1,1,1,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["labeled"] == 180
    assert payload["iso"] == 2
    assert payload["gamma_max_empirical"] == payload["gamma_max_formula"] == 4
    assert payload["alpha_min_empirical"] == payload["alpha_min_formula"] == 4
    assert payload["match"] is True


def test_verify_human_verdict(capsys):
    code, out, _ = run(capsys, ["verify", "2,1,1"])
    assert code == 0
    assert out.splitlines() == [
        "sequence=2,1,1 labeled=1 iso=1",
        "gamma_max empirical=1 formula=1",
        "alpha_min empirical=2 formula=2",
        "verdict match",
    ]


def test_verify_edgeless(capsys):
    code, out, _ = run(capsys, ["verify", "--json", "0,0"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["labeled"], payload["iso"]) == (1, 1)
    assert payload["gamma_max_empirical"] == payload["gamma_max_formula"] == 2
    assert payload["alpha_min_empirical"] == payload["alpha_min_formula"] == 2
    assert payload["match"] is True


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, ["verify", "--cap", "3", "2,2,1,1"])
    assert code == 3
    assert "SizeCapExceededError" in err


def test_verify_long_path_needs_no_deep_recursion(capsys):
    path = ",".join(["2"] * 200 + ["1", "1"])
    code, out, err = run(capsys, ["verify", "--json", "--cap", "1000", path])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["iso"] == 1
    assert payload["labeled"] == factorial(200)
    assert payload["match"] is True


def test_verify_many_components_needs_no_deep_recursion(capsys):
    # 1,200 copies of K2: the labelled count nests one block per tree
    ones = ",".join(["1"] * 2400)
    code, out, err = run(capsys, ["verify", "--json", "--cap", "5000", ones])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["iso"] == 1
    assert payload["labeled"] == prod(range(1, 2400, 2))  # 2399!!
    assert payload["match"] is True
    code, out, err = run(capsys, ["verify", "--cap", "5000", ones])
    assert code == 0
    assert err == ""
    assert out.endswith("verdict match\n")


# CPython 3.11+ limits int-to-str conversion to a number of digits
get_digit_limit = getattr(sys, "get_int_max_str_digits", None)


@contextmanager
def digit_limit(limit):
    """Run with the int digit limit set to ``limit`` (0 lifts it)."""
    if get_digit_limit is None:
        yield
        return
    saved = get_digit_limit()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("form", [["--json"], []])
def test_verify_prints_counts_past_the_digit_limit(capsys, form):
    # the labelled count 2000! has 5,736 digits
    path = ",".join(["2"] * 2000 + ["1", "1"])
    with digit_limit(4400):
        code, out, err = run(capsys, ["verify", *form, "--cap", "5000", path])
        if get_digit_limit is not None:
            assert get_digit_limit() == 4400
    assert code == 0
    assert err == ""
    with digit_limit(0):
        count = str(factorial(2000))
        if form:
            assert json.loads(out)["labeled"] == factorial(2000)
        else:
            assert out.splitlines()[0].endswith(f",1,1 labeled={count} iso=1")
    assert len(count) == 5736


def test_verify_prints_counts_without_a_digit_limit(capsys, monkeypatch):
    # Python 3.10 has no int-to-str digit limit to lift
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    code, out, err = run(capsys, ["verify", "2,2,1,1,1,1,1,1"])
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "sequence=2,2,1,1,1,1,1,1 labeled=180 iso=2"


@pytest.mark.parametrize(
    "argv,line",
    [
        (["--max-n", "12", "--cap", "10"], "11 entries, cap is 10"),
        (["--max-n", "12", "--cap", "10", "--parallel", "2"], "11 entries, cap is 10"),
        (["--max-n", "1200", "--cap", "1"], "3 entries, cap is 1"),
        (["--max-n", "1200", "--cap", "1", "--parallel", "2"], "3 entries, cap is 1"),
    ],
)
def test_sweep_checks_cap_before_listing_sequences(capsys, monkeypatch, argv, line):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "sweep_sequences", refuse)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
    code, out, err = run(capsys, ["sweep", *argv])
    assert code == 3
    assert out == ""
    assert err == f"error: SizeCapExceededError: positive part has {line}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cap", "-1", "2,1,1"],
        ["sweep", "--max-n", "5", "--cap", "-1"],
        ["sweep", "--max-n", "2", "--cap", "-1"],
    ],
)
def test_negative_cap_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "--cap must be non-negative" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_parallel_below_one(capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, ["sweep", "--max-n", "5", "--parallel", workers])
    assert code == 1
    assert out == ""
    assert "--parallel must be at least 1" in err


def test_worker_count_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._worker_count(1) == 1
    assert cli._worker_count(4) == 4
    assert cli._worker_count(10**9) == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(3) == 1
    for bad in (0, -3):
        with pytest.raises(ValueError):
            cli._worker_count(bad)


def test_sweep_serial(capsys):
    code, out, _ = run(capsys, ["sweep", "--max-n", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2,1,1 gamma_max 1=1 alpha_min 2=2 ok"
    assert lines[-1] == "checked 7 sequences, 0 mismatches"
    assert len(lines) == 8


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, ["sweep", "--max-n", "2"])
    assert code == 0
    assert out == "checked 0 sequences, 0 mismatches\n"


def test_sweep_json_parallel(capsys):
    code, out, _ = run(capsys, ["sweep", "--json", "--max-n", "5", "--parallel", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 7
    assert payload["mismatches"] == 0
    assert len(payload["results"]) == 7
    assert all(r["match"] for r in payload["results"])


def test_sweep_parallel_starts_its_pool_through_the_module(capsys, monkeypatch):
    started = []

    class SerialPool:
        """Maps in this process and records the worker count it was given."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["sweep", "--json", "--max-n", "6"]
    code, serial, _ = run(capsys, argv)
    assert code == 0
    assert started == []
    code, parallel, _ = run(capsys, [*argv, "--parallel", "2"])
    assert code == 0
    assert parallel == serial
    assert started == [cli._worker_count(2)] == [2]


def test_sweep_parallel_one_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    code, out, _ = run(capsys, ["sweep", "--max-n", "5", "--parallel", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "checked 7 sequences, 0 mismatches"


def test_swap_search(capsys, tmp_path):
    path = str(tmp_path / "best.json")
    code, out, _ = run(
        capsys,
        [
            "swap-search",
            "--json",
            "--restarts",
            "5",
            "--seed",
            "1",
            "--out",
            path,
            "2,2,1,1,1,1,1,1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_max"] == 4
    assert payload["gamma_found"] <= 4
    assert payload["out"] == path
    found = read_forest(path)
    assert found.degree_sequence() == DegreeSequence((2, 2, 1, 1, 1, 1, 1, 1))
    assert found.domination_number()[0] == payload["gamma_found"]


@pytest.mark.parametrize("restarts", ["0", "-5"])
def test_swap_search_rejects_restarts_below_one(capsys, monkeypatch, restarts):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(oracle, "realize_any", no_search)
    code, out, err = run(
        capsys, ["swap-search", "--json", "--restarts", restarts, "2,2,1,1,1,1,1,1"]
    )
    assert code == 1
    assert out == ""
    assert "restarts must be at least 1" in err


def test_swap_search_rejects_a_negative_seed(capsys, monkeypatch):
    # Random(-7) draws what Random(7) does, so the output's seed would lie
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(oracle, "realize_any", no_search)
    code, out, err = run(
        capsys,
        ["swap-search", "3,3,2,2,1,1,1,1,1,1", "--seed", "-7", "--restarts", "3", "--json"],
    )
    assert code == 1
    assert out == ""
    assert err == "error: ValueError: seed must be a non-negative integer, got -7\n"


def test_swap_search_with_zero_entries(capsys):
    code, out, err = run(capsys, ["swap-search", "--json", "2,1,1,0"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["gamma_found"] == payload["gamma_max"] == 2
    assert payload["attained"] is True


def test_swap_search_edgeless(capsys, tmp_path):
    out_path = str(tmp_path / "found.json")
    code, out, err = run(capsys, ["swap-search", "--json", "--out", out_path, "0,0"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["gamma_found"] == payload["gamma_max"] == 2
    assert payload["attained"] is True
    assert read_forest(out_path) == Forest(2)


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_eval", interrupted)
    code, out, err = run(capsys, ["eval", "2,1,1"])
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


# Help and usage text at a fixed width of 80 columns: sharing one parser
# across calls must not change a byte of it.
HELP_80 = {
    (): """\
usage: forestdom [-h] {eval,build,solve,verify,sweep,swap-search} ...

Extremes of domination and independence numbers over all forests with a given
degree sequence.

positional arguments:
  {eval,build,solve,verify,sweep,swap-search}
    eval                evaluate the closed forms for a sequence
    build               build a realization attaining both extremes
    solve               solve an existing forest file exactly
    verify              compare formulas against full enumeration
    sweep               verify every admissible sequence up to max-n
    swap-search         heuristic hill-climb on gamma

options:
  -h, --help            show this help message and exit
""",
    ("eval",): """\
usage: forestdom eval [-h] [--json] sequence

positional arguments:
  sequence    degrees, e.g. '3,2,1,1,1' or '3 2 1 1 1'

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
""",
    ("build",): """\
usage: forestdom build [-h] [--json] sequence out

positional arguments:
  sequence
  out         output forest file (JSON format)

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
""",
    ("solve",): """\
usage: forestdom solve [-h] [--json] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
""",
    ("verify",): """\
usage: forestdom verify [-h] [--json] [--cap CAP] sequence

positional arguments:
  sequence

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
  --cap CAP
""",
    ("sweep",): """\
usage: forestdom sweep [-h] [--json] [--max-n MAX_N] [--cap CAP]
                       [--parallel PARALLEL]

options:
  -h, --help           show this help message and exit
  --json               machine-readable output
  --max-n MAX_N
  --cap CAP
  --parallel PARALLEL  worker processes (capped at CPU count)
""",
    ("swap-search",): """\
usage: forestdom swap-search [-h] [--json] [--restarts RESTARTS] [--seed SEED]
                             [--out OUT]
                             sequence

positional arguments:
  sequence

options:
  -h, --help           show this help message and exit
  --json               machine-readable output
  --restarts RESTARTS
  --seed SEED
  --out OUT            write the best forest here
""",
}
USAGE_ERROR_80 = """\
usage: forestdom [-h] {eval,build,solve,verify,sweep,swap-search} ...
forestdom: error: the following arguments are required: command
"""


@pytest.mark.parametrize("command", list(HELP_80), ids=lambda c: " ".join(c) or "top")
def test_help_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([*command, "--help"])
    assert stop.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == HELP_80[command]
    assert captured.err == ""


def test_usage_error_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == USAGE_ERROR_80


def test_second_call_builds_no_parser(capsys, monkeypatch):
    run(capsys, ["eval", "2,1,1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, ["eval", "2,1,1"])
    assert code == 0
    assert out == "n=3 n0=0 n1=2 n_ge2=1 c=1 branch=A gamma_max=1 alpha_min=2\n"
    assert built == []


def test_nothing_carries_over_between_calls(capsys):
    code, out, _ = run(capsys, ["eval", "3,2,1,1,1", "--json"])
    assert code == 0
    assert json.loads(out)["gamma_max"] == 2
    code, out, _ = run(capsys, ["eval", "3,2,1,1,1"])
    assert code == 0
    assert out == "n=5 n0=0 n1=3 n_ge2=2 c=1 branch=A gamma_max=2 alpha_min=3\n"
    # an option's value is not the next call's default
    code, _, _ = run(capsys, ["verify", "2,1,1", "--cap", "0"])
    assert code == 3
    code, _, _ = run(capsys, ["verify", "2,1,1"])
    assert code == 0


def test_solve_json_builds_no_human_lines(capsys, monkeypatch, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(Forest(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).to_json())

    def refuse(self):
        raise AssertionError("a human line was built for --json")

    monkeypatch.setattr(DegreeSequence, "__str__", refuse)
    code, out, err = run(capsys, ["solve", str(path), "--json"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["degree_sequence"] == [2, 2, 2, 1, 1]
