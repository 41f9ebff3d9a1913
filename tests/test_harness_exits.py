"""Bad input to a check harness or to ``repro serve``: one line, exit 2.

Exit 1 means a failed check, so an input error must not end in a
traceback (which exits 1): every entry point reports it as one
``error: ...`` line on stderr and exits 2, the way ``repro`` does.
"""

import importlib

import pytest

SERVE = ["serve", "--dims", "3", "--queries", "10"]

CASES = [
    ("repro.serve.chaos", ["--dims", "3", "--queries", "0"]),
    ("repro.serve.chaos", ["--dims", "3", "--replicas", "0"]),
    ("repro.serve.chaos", ["--dims", "9"]),
    ("repro.backends.diff", ["--queries", "0"]),
    ("repro.backends.diff", ["--dims", "0"]),
    ("repro.distributed.smoke", ["--dims", "3", "--log", "{tmp}/missing.jsonl"]),
    ("repro.distributed.smoke", ["--dims", "3", "--log", "{tmp}/empty.jsonl"]),
    ("repro.mining.smoke", ["--dims", "3", "--log", "{tmp}/empty.jsonl"]),
    ("repro.cli", SERVE + ["--replicas", "0"]),
    ("repro.cli", SERVE + ["--replicas", "-2"]),
    ("repro.cli", SERVE + ["--cache-mb", "-5"]),
    ("repro.cli", SERVE + ["--cache-mb", "-5", "--replicas", "2"]),
    ("repro.cli", SERVE + ["--cache-mb", "1e-7"]),
    ("repro.cli", SERVE + ["--cache-mb", "1e-7", "--replicas", "2"]),
]


@pytest.mark.parametrize(
    "module,argv", CASES, ids=[" ".join([m] + a) for m, a in CASES]
)
def test_bad_input_is_one_error_line_and_exit_2(module, argv, tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    main = importlib.import_module(module).main
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err
