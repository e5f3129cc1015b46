import numpy as np
import pytest

from fluidnet.errors import DomainError
from fluidnet.io import checked_table, fmt, write_csv, write_tables


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


def test_checked_table_refuses_non_finite_before_writing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(DomainError, match=f"non-finite value in column y of {path}"):
        checked_table(path, ["x", "y"], [[1.0, 2.0], np.array([0.5, np.inf])])
    assert not path.exists()


def test_write_tables_matches_write_csv(tmp_path):
    columns = [np.arange(2), np.array([-0.0, 5e-324])]
    write_tables([checked_table(tmp_path / "a.csv", ["i", "x"], columns, COMMENTS, FOOTER)])
    write_csv(tmp_path / "b.csv", ["i", "x"], columns, COMMENTS, FOOTER)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
