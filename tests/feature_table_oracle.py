"""The feature table as it was held before it became one float matrix.

``FeatureTable`` held two float arrays (``dt_prev``, ``dt_parent``) and four
dimension name -> array dicts (``metric``, ``parent_metric``,
``sib_older_mean``, ``br_neg``), and the CSV layout was spelled out in
``_csv_header`` and ``csv_columns``. ``write_features_csv`` formatted the
columns in header order, and ``read_features_csv`` read the cells into
name-keyed lists and built the table through ``from_csv_columns``. They are
kept as the oracle that ``threadtone.features.write_features_csv`` must
match byte for byte and ``threadtone.features.read_features_csv`` value for
value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from threadtone.dimensions import NAMES
from threadtone.errors import FeatureFileError

NAN = float("nan")

PER_DIMENSION = ("metric", "parent_metric", "sib_older_mean", "br_neg")


def _csv_header() -> list[str]:
    header = ["post_id", "discussion_id", "depth", "dt_prev", "dt_parent"]
    for name in NAMES:
        header += [f"{name}_{kind}" for kind in PER_DIMENSION]
    return header


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """One row per annotated non-root post, stored as columns."""

    post_id: tuple[str, ...]
    discussion_id: tuple[str, ...]
    depth: np.ndarray
    dt_prev: np.ndarray
    dt_parent: np.ndarray
    metric: dict[str, np.ndarray]
    parent_metric: dict[str, np.ndarray]
    sib_older_mean: dict[str, np.ndarray]
    br_neg: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.post_id)

    def csv_columns(self) -> list[np.ndarray | tuple]:
        """Columns in ``_csv_header()`` order."""
        columns = [self.post_id, self.discussion_id, self.depth,
                   self.dt_prev, self.dt_parent]
        for name in NAMES:
            columns += [getattr(self, kind)[name] for kind in PER_DIMENSION]
        return columns

    @classmethod
    def from_csv_columns(cls, columns: dict[str, list]) -> "FeatureTable":
        """Build from lists keyed by ``_csv_header()`` names."""
        def floats(key: str) -> np.ndarray:
            return np.array(columns[key], dtype=float)

        return cls(
            post_id=tuple(columns["post_id"]),
            discussion_id=tuple(columns["discussion_id"]),
            depth=np.array(columns["depth"], dtype=np.int64),
            dt_prev=floats("dt_prev"),
            dt_parent=floats("dt_parent"),
            **{kind: {name: floats(f"{name}_{kind}") for name in NAMES}
               for kind in PER_DIMENSION},
        )


def _cell(value: float | int) -> str:
    if value != value:  # NaN: absent
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_features_csv(features: FeatureTable, path: str | Path) -> None:
    header = _csv_header()
    cells = []
    for key, column in zip(header, features.csv_columns()):
        if isinstance(column, tuple):
            cells.append(column)
        elif key.endswith("_br_neg"):
            cells.append(["" if v != v else str(int(v)) for v in column.tolist()])
        else:
            # tolist() yields Python floats: repr(np.float64) is not a number
            cells.append([_cell(v) for v in column.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_features_csv(path: str | Path) -> FeatureTable:
    """The table ``write_features_csv`` wrote. Raises FeatureFileError,
    naming the file, when it cannot be read or holds anything else."""
    expected = _csv_header()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != expected:
                raise ValueError("unexpected header")
            records = [record for record in reader if record]
        if any(len(record) != len(expected) for record in records):
            raise ValueError("a row's cells do not match the header")
        columns = {key: [record[j] for record in records]
                   for j, key in enumerate(expected)}
        columns["depth"] = [int(v) for v in columns["depth"]]
        for key in expected[3:]:
            columns[key] = [float(v) if v != "" else NAN for v in columns[key]]
    except (OSError, ValueError, csv.Error) as exc:  # an OSError: its reason
        raise FeatureFileError(f"cannot read feature table {path}: "
                               f"{getattr(exc, 'strerror', None) or exc}") from None
    return FeatureTable.from_csv_columns(columns)
