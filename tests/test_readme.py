"""The README's command-line examples print what the README says."""

from pathlib import Path

from forestdom import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected stdout lines) for each ``$ forestdom ...`` line of
    the first shell block under "## Command line"."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ forestdom "):
            examples.append((line.split()[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def _matches(expected, actual) -> bool:
    """Line-by-line equality, where a ``...`` line matches any run of lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


class SerialPool:
    """Stands in for the process pool: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # `sweep --parallel 4` takes the pool path on any host, in this process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    examples = _examples()
    assert [argv[0] for argv, _ in examples] == [
        "eval", "build", "solve", "verify", "sweep", "swap-search",
    ]
    for argv, expected in examples:
        code = cli.main(argv)
        out = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        assert _matches(expected, out), (argv, out)


def test_ellipsis_matches_any_run_of_lines():
    assert _matches(["a", "...", "b"], ["a", "b"])
    assert _matches(["a", "...", "b"], ["a", "x", "y", "b"])
    assert not _matches(["a", "...", "b"], ["a", "x"])
    assert not _matches(["a"], ["a", "b"])
