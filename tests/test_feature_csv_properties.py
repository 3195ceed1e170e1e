"""Property tests: ``features.csv`` from the one-matrix ``FeatureTable``
against the dict-based table and CSV code in ``feature_table_oracle``.

Random tables have 0-200 rows, NaN in any cell, ``br_neg`` cells of 0, 1
or NaN, floats that need 17 significant digits, subnormals, +-1e300 and
infinities, and ids holding commas and quotes. The written bytes must be
the oracle's, and reading them back must give every value bit for bit.
Files with bad cells, rows of the wrong length and blank lines must fail
with the oracle reader's message, which reads every row before it
converts any.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import feature_table_oracle as oracle
from threadtone.errors import FeatureFileError
from threadtone.features import (
    COLUMNS,
    FeatureTable,
    read_features_csv,
    write_features_csv,
)

NAN = float("nan")

ids = st.text(alphabet='ab1,"\' é-', max_size=6)
floats = st.one_of(
    st.just(NAN),
    st.floats(allow_nan=False),
    st.sampled_from((0.1 + 0.2, 1 / 3, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308 / 3, 1e300, -1e300)))
br_neg = st.sampled_from((0.0, 1.0, NAN))


@st.composite
def csv_columns(draw):
    """Lists keyed by the oracle's CSV header names, n rows each."""
    n = draw(st.integers(0, 200))
    columns = {}
    for key in oracle._csv_header():
        if key in ("post_id", "discussion_id"):
            cells = ids
        elif key == "depth":
            cells = st.integers(0, 10**6)
        else:
            cells = br_neg if key.endswith("_br_neg") else floats
        columns[key] = draw(st.lists(cells, min_size=n, max_size=n))
    return columns


def assert_same_floats(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shape, NaN in the same cells, every other value bit for bit."""
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    absent = np.isnan(want)
    assert np.array_equal(np.isnan(got), absent)
    assert np.array_equal(got[~absent].view(np.int64),
                          want[~absent].view(np.int64))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(csv_columns())
def test_csv_matches_the_dict_based_table(columns):
    n = len(columns["post_id"])
    table = FeatureTable(
        post_id=tuple(columns["post_id"]),
        discussion_id=tuple(columns["discussion_id"]),
        depth=np.array(columns["depth"], dtype=np.int64),
        values=np.array([columns[key] for key in COLUMNS],
                        dtype=float).reshape(len(COLUMNS), n).T)
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle_path = Path(tmp) / "new.csv", Path(tmp) / "oracle.csv"
        write_features_csv(table, path)
        oracle.write_features_csv(oracle.FeatureTable.from_csv_columns(columns),
                                  oracle_path)
        assert path.read_bytes() == oracle_path.read_bytes()

        loaded = read_features_csv(path)
        from_oracle_file = read_features_csv(oracle_path)
        read_by_oracle = oracle.read_features_csv(path)

    for got in (loaded, from_oracle_file):
        assert got.post_id == table.post_id
        assert got.discussion_id == table.discussion_id
        assert got.depth.dtype == np.int64
        assert np.array_equal(got.depth, table.depth)
        assert got.values.flags.f_contiguous  # each column contiguous
        assert_same_floats(got.values, table.values)
    oracle_columns = read_by_oracle.csv_columns()[3:]
    for j, key in enumerate(COLUMNS):
        assert_same_floats(loaded.values[:, j], oracle_columns[j])


# a valid cell for each column, and cells that break a row: text in a
# number's place, a float or a blank for the depth, a row cut short or
# grown by a cell, a blank line
_cells = st.sampled_from(("x", "soon", "1.5", "", "2", "-0.25", "nan"))
_row_edits = st.sampled_from(("keep",) * 12 + ("short", "long", "blank"))


@st.composite
def damaged_csv(draw) -> str:
    header = ",".join(oracle._csv_header())
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        cells = ["p", "d", "1"] + ["0.5"] * len(COLUMNS)
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(2, len(cells) - 1))
            cells[at] = draw(_cells)
        edit = draw(_row_edits)
        if edit == "short":
            cells.pop()
        elif edit == "long":
            cells.append("0")
        lines.append("" if edit == "blank" else ",".join(cells))
    return "".join(line + "\n" for line in lines)


def read_message(reader, path: Path) -> str | None:
    try:
        reader(path)
    except FeatureFileError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(damaged_csv())
@example("post_id\n")
@example(",".join(oracle._csv_header())  # depth first, then by column
         + "\np,d,1,0,soon" + ",0" * (len(COLUMNS) - 2)
         + "\np,d,1,x" + ",0" * (len(COLUMNS) - 1)
         + "\np,d,-" + ",0" * len(COLUMNS) + "\n")
def test_a_damaged_file_fails_as_the_oracle_reader_fails(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        path.write_text(text, encoding="utf-8")
        want = read_message(oracle.read_features_csv, path)
        assert read_message(read_features_csv, path) == want
        if want is None:
            got = read_features_csv(path)
            columns = oracle.read_features_csv(path).csv_columns()
            assert got.post_id == tuple(columns[0])
            for j, column in enumerate(columns[3:]):
                assert_same_floats(got.values[:, j], np.array(column, float))


def test_bytes_that_are_not_utf8_outrank_a_short_row(tmp_path):
    # the bad byte lies several read blocks after the short row; the oracle
    # reader reads every row before it checks one, so it reports the byte
    row = "p,d,1" + ",0.5" * len(COLUMNS) + "\n"
    text = ",".join(oracle._csv_header()) + "\np,d\n" + row * 2000
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode() + b"\xff\n")
    message = read_message(oracle.read_features_csv, path)
    assert "can't decode byte 0xff" in message
    assert read_message(read_features_csv, path) == message


def test_ids_with_line_breaks_quotes_and_commas_round_trip(tmp_path):
    # csv.writer(lineterminator="\n") left a "\r" unquoted, so the file
    # did not read back ("a row's cells do not match the header")
    ids = ("p\r", "p\n", "p\r\n", "\r", 'say "hi"', '"', "a,b", ",", "plain")
    table = FeatureTable(post_id=ids, discussion_id=ids[::-1],
                         depth=np.arange(len(ids), dtype=np.int64),
                         values=np.zeros((len(ids), len(COLUMNS))))
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    assert path.read_bytes().split(b"\n")[1].startswith(b'"p\r",plain,0,')
    got = read_features_csv(path)
    assert got.post_id == ids and got.discussion_id == ids[::-1]
    assert np.array_equal(got.depth, table.depth)
    assert np.array_equal(got.values, table.values)
