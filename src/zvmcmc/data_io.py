"""Data loading, chain and study serialization, synthetic datasets.

Real datasets are not redistributed; the synthetic generators produce
seeded stand-ins with the same shape and rough statistical texture, and
every loader accepts a user-supplied file instead.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

import numpy as np

from .models import BinaryRegressionData, ReturnsSeries
from .samplers import ChainOutput

__all__ = [
    "DataLoadError",
    "load_design_matrix",
    "load_returns",
    "export_chain",
    "export_study",
    "synthetic_banknote",
    "synthetic_demgbp_returns",
]


class DataLoadError(ValueError):
    """A data file failed validation; the message carries file and line."""


def _parse_float(text, path, line_no, col_name):
    try:
        return float(text)
    except ValueError:
        raise DataLoadError(
            f"{path}:{line_no}: could not parse {col_name}={text!r} as a number"
        ) from None


@contextmanager
def _csv_rows(path):
    """Open a CSV file for a with statement, giving (header, rows): rows yields
    (line number, fields) for every row with a non-blank field.  An empty
    file raises DataLoadError naming line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataLoadError(f"{path}:1: file is empty")
        yield header, ((line_no, row) for line_no, row in enumerate(reader, start=2)
                       if any(c.strip() for c in row))


def load_design_matrix(path, add_intercept: bool = False) -> BinaryRegressionData:
    """Read a CSV with a 0/1 column named y, all other columns regressors.

    Regressors keep file order; add_intercept prepends a column of ones.
    Validation failures name the file and line.
    """
    with _csv_rows(path) as (header, body):
        header = [h.strip() for h in header]
        if "y" not in header:
            raise DataLoadError(f"{path}:1: header must contain a response column named 'y'")
        y_col = header.index("y")
        x_cols = [i for i in range(len(header)) if i != y_col]
        if not x_cols:
            raise DataLoadError(f"{path}:1: no regressor columns besides 'y'")
        rows = []
        ys = []
        for line_no, row in body:
            if len(row) != len(header):
                raise DataLoadError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            y_val = _parse_float(row[y_col], path, line_no, "y")
            if y_val not in (0.0, 1.0):
                raise DataLoadError(f"{path}:{line_no}: response must be 0 or 1, got {row[y_col]!r}")
            ys.append(y_val)
            rows.append([_parse_float(row[i], path, line_no, header[i]) for i in x_cols])
            if not (add_intercept or any(rows[-1])):
                raise DataLoadError(f"{path}:{line_no}: design row is all zeros")
    if not rows:
        raise DataLoadError(f"{path}:2: no data rows")
    X = np.asarray(rows, dtype=float)
    if add_intercept:
        X = np.hstack([np.ones((X.shape[0], 1)), X])
    try:
        return BinaryRegressionData(design=X, response=np.asarray(ys, dtype=float))
    except ValueError as exc:
        raise DataLoadError(f"{path}: {exc}") from None


def load_returns(path) -> ReturnsSeries:
    """Simple returns of a CSV with columns date,price in that order (header required).

    r_t = (p_t - p_{t-1}) / p_{t-1}, and h0 is their sample variance with
    ddof=1.  At least 3 prices, each finite and > 0, are required; a constant
    price series has zero return variance and is rejected because the GARCH
    recursion cannot be seeded from it.  Validation failures name the file,
    and the line where there is one.
    """
    with _csv_rows(path) as (header, body):
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "date" or header[1] != "price":
            raise DataLoadError(f"{path}:1: expected header date,price, got {header}")
        prices = []
        for line_no, row in body:
            if len(row) < 2:
                raise DataLoadError(f"{path}:{line_no}: expected at least 2 fields, got {len(row)}")
            prices.append(_parse_float(row[1], path, line_no, "price"))
    p = np.asarray(prices, dtype=float)
    if p.size < 3:
        raise DataLoadError(f"{path}: need at least 3 prices, got {p.size}")
    if not np.all(np.isfinite(p) & (p > 0.0)):
        raise DataLoadError(f"{path}: prices must be finite and > 0")
    returns = np.diff(p) / p[:-1]
    h0 = float(np.var(returns, ddof=1))
    if h0 <= 0.0:
        raise DataLoadError(f"{path}: returns have zero sample variance, cannot seed h0")
    return ReturnsSeries(returns=returns, h0=h0)


# ---------------------------------------------------------------------------
# chain CSV export


def export_chain(chain: ChainOutput, path) -> None:
    """Write iter,beta_1..beta_d,grad_1..grad_d with round-trippable floats."""
    d = chain.dimension
    header = ["iter"] + [f"beta_{j + 1}" for j in range(d)] + [f"grad_{j + 1}" for j in range(d)]
    rows = np.column_stack([np.arange(chain.length), chain.draws, chain.gradients])
    # csv.writer's dialect: comma separated, \r\n line ends, the header unprefixed
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt=["%d"] + ["%.17g"] * (2 * d), delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# study JSON


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        # a result or config object is written as its fields, in declaration order
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return None
        if v == np.inf:
            return "inf"
        if v == -np.inf:
            return "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def export_study(report: dict, path) -> None:
    """Serialize a study report to JSON.

    Infinite ratios become the string "inf" (the report carries an explicit
    *_infinite flag next to them); NaN becomes null.  Everything else is
    plain JSON so a rerun with the same config and seed is byte-identical
    outside the timing block.
    """
    with open(path, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic datasets


# Measurement-style class templates for the synthetic banknote generator:
# per-class means and standard deviations of the four regressors (first three
# recorded as deviations from a nominal size, the last a raw margin width),
# plus a shared within-class correlation.  The two classes overlap but are
# nearly separated along the margin coordinate, which is what produces the
# strongly skewed, soft-wall posterior this dataset is meant to exercise.
_BANKNOTE_MEAN_A = (0.0, -0.1, -0.3, 8.31)
_BANKNOTE_MEAN_B = (-0.225, 0.5, 0.45, 11.64)
_BANKNOTE_SD_A = (0.39, 0.36, 0.45, 0.64)
_BANKNOTE_SD_B = (0.35, 0.26, 0.31, 0.77)
_BANKNOTE_CORR = (
    (1.0, 0.3, 0.3, 0.1),
    (0.3, 1.0, 0.6, 0.2),
    (0.3, 0.6, 1.0, 0.2),
    (0.1, 0.2, 0.2, 1.0),
)
# design columns, one per template entry; a design needs at least as many rows
_BANKNOTE_COLUMNS = len(_BANKNOTE_MEAN_A)


def synthetic_banknote(seed: int = 101, n: int = 200) -> BinaryRegressionData:
    """Seeded stand-in for a two-class banknote measurement dataset.

    n rows split evenly between two classes of correlated Gaussian
    measurement vectors (response 1 for the second class), four columns
    drawn from fixed per-class templates, so n must be at least 4.  The
    classes are close to separated along the last column, giving a skewed
    posterior for the no-intercept binary regressions fitted to it.
    """
    if n < _BANKNOTE_COLUMNS:
        raise ValueError(f"n must be >= {_BANKNOTE_COLUMNS}, the number of design columns, got {n}")
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(np.array(_BANKNOTE_CORR))
    n_a = n // 2
    n_b = n - n_a
    columns = _BANKNOTE_COLUMNS
    X_a = np.array(_BANKNOTE_MEAN_A) + (rng.standard_normal((n_a, columns)) @ L.T) * _BANKNOTE_SD_A
    X_b = np.array(_BANKNOTE_MEAN_B) + (rng.standard_normal((n_b, columns)) @ L.T) * _BANKNOTE_SD_B
    X = np.vstack([X_a, X_b])
    y = np.concatenate([np.zeros(n_a), np.ones(n_b)])
    return BinaryRegressionData(design=X, response=y)


def synthetic_demgbp_returns(seed: int = 333, length: int = 1974) -> ReturnsSeries:
    """Seeded GARCH(1,1) simulation shaped like the DEM/GBP daily returns.

    omega = (0.01, 0.15, 0.80), a long warmup discarded, h0 set to the sample
    variance of the emitted returns to match the estimation convention.  The
    default length matches the widely circulated daily benchmark series for
    that currency pair.
    """
    om1, om2, om3 = 0.01, 0.15, 0.80
    warmup = 200
    # one draw call gives the stream of warmup + length scalar draws, and the
    # recursion runs on Python floats: the same double arithmetic and correctly
    # rounded sqrt as numpy scalars, with less overhead per step
    shocks = np.random.default_rng(seed).standard_normal(warmup + length).tolist()
    h = om1 / (1.0 - om2 - om3)
    r = 0.0
    path = []
    for e in shocks:
        h = om1 + om3 * h + om2 * r * r
        r = math.sqrt(h) * e
        path.append(r)
    out = np.array(path[warmup:])
    return ReturnsSeries(returns=out, h0=float(np.var(out, ddof=1)))
