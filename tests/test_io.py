import filecmp
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluidnet
from fluidnet import cli, io
from fluidnet.cli import main
from fluidnet.errors import DomainError
from fluidnet.io import fmt, write_csv


def row_writer(path, header, rows, comments=None, footer_comments=None):
    """The row-at-a-time formatter write_csv replaced: the byte-level oracle."""
    with open(path, "w", newline="\n") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={fmt(value)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
        for key, value in (footer_comments or {}).items():
            fh.write(f"# {key}={fmt(value)}\n")


GOLDEN = {
    "int": [0, 7, -3, 2**40],
    "np_int64": np.array([1, -2, 3, 2**62], dtype=np.int64),
    "float": [0.1, -0.0, 1e-300, 5e-324],
    "np_float64": np.array([-0.0, 5e-324, 1e300, 2.0 / 3.0]),
    "tuple": (2.2, 3.0, 1e16, -1.5e-7),
    "object": [2**70, -1, 0, 3],
}
COMMENTS = {"digest": "abc123", "seed": 3, "eta": np.float64(2.6), "scale": 0.1}
FOOTER = {"a": np.float64(3.0000000000000004), "b": -6.0, "rms": 1e-300}


@pytest.mark.parametrize("columns", [
    list(GOLDEN.values()),
    [[], np.array([]), ()],
], ids=["golden", "header_only"])
def test_bytes_match_row_writer(tmp_path, columns):
    header = list(GOLDEN)[:len(columns)]
    write_csv(tmp_path / "cols.csv", header, columns, COMMENTS, FOOTER)
    row_writer(tmp_path / "rows.csv", header, zip(*columns), COMMENTS, FOOTER)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_golden_table_text(tmp_path):
    write_csv(tmp_path / "t.csv", ["i", "x"], [np.arange(2), np.array([-0.0, 5e-324])],
              {"seed": 1}, footer_comments={"rms": np.float64(0.5)})
    assert (tmp_path / "t.csv").read_text() == "# seed=1\ni,x\n0,-0.0\n1,5e-324\n# rms=0.5\n"


def test_ragged_columns_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
    assert not (tmp_path / "r.csv").exists()


def test_non_finite_table_is_refused_before_its_file_opens(tmp_path, monkeypatch):
    # the error names the file under --out, not in the staging directory, and the
    # failed run leaves no file and no directory behind
    opened = []
    monkeypatch.setattr(io, "write_csv", lambda path, *args: opened.append(path))
    out = tmp_path / "out"
    table = ("t.csv", ["x", "y"], [[1.0, 2.0], np.array([0.5, np.inf])], {})
    message = f"non-finite value in column y of {out / 't.csv'}"
    with pytest.raises(DomainError, match=re.escape(message)):
        with cli._staged(out) as files:
            cli._write(out, files, [table])
    assert opened == []
    assert list(tmp_path.iterdir()) == []


def test_cached_column_matches_row_writer(tmp_path):
    # the second file reuses the first one's text of the shared column
    shared, other = np.arange(1, 65) / 65, np.linspace(-3.0, 7.0, 64)
    write_csv(tmp_path / "first.csv", ["p", "x"], [shared, other])
    hits = io._formatted.cache_info().hits
    write_csv(tmp_path / "cols.csv", ["p", "x"], [shared, other[::-1]], COMMENTS, FOOTER)
    assert io._formatted.cache_info().hits == hits + 1
    row_writer(tmp_path / "rows.csv", ["p", "x"], zip(shared, other[::-1]), COMMENTS, FOOTER)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_column_cache_keys_on_dtype(tmp_path):
    # equal bytes, different dtypes: each column prints its own values, in either order
    ints = np.array([0, 1, 4607182418800017408], dtype=np.int64)
    floats = ints.view(np.float64)
    for name, columns in (("if", [ints, floats]), ("fi", [floats, ints])):
        write_csv(tmp_path / f"{name}.csv", ["a", "b"], columns)
        row_writer(tmp_path / f"{name}_rows.csv", ["a", "b"], zip(*columns))
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_rows.csv").read_bytes()
    assert (tmp_path / "if.csv").read_text().splitlines()[-1] == "4607182418800017408,1.0"


def test_signed_zeros_print_as_themselves(tmp_path):
    # 0.0 == -0.0, but their bytes differ and so do their texts
    write_csv(tmp_path / "z.csv", ["a", "b", "c"],
              [np.zeros(2), -np.zeros(2), np.array([0.0, -0.0])])
    assert (tmp_path / "z.csv").read_text() == "a,b,c\n0.0,-0.0,0.0\n0.0,-0.0,-0.0\n"


def test_reports_in_one_process_match_a_fresh_process(tmp_path):
    # the column cache lives as long as the process: a report written after another
    # one with other eta and users matches the same report from a fresh interpreter
    first = ["report", "--eta", "2.4,2.7,3,3.3,3.6,3.9", "--runs", "1", "--users", "50"]
    second = ["report", "--eta", "2.5,2.8,3.1,3.4,3.7,4", "--runs", "1", "--users", "40"]
    assert main([*first, "--out", str(tmp_path / "first")]) == 0
    assert main([*second, "--out", str(tmp_path / "second")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "fluidnet.cli", *second,
                    "--out", str(tmp_path / "fresh")],
                   env=env, capture_output=True, check=True, timeout=60)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
    assert len(names) == 6 * 5 + 5
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "second", tmp_path / "fresh", names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
