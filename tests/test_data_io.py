import json

import numpy as np
import pytest
from helpers import reference_demgbp_returns

from zvmcmc import (
    ChainOutput,
    DataLoadError,
    GaussianTarget,
    ReferenceReport,
    SamplerConfig,
    export_chain,
    export_study,
    load_design_matrix,
    load_returns,
    rw_metropolis,
    synthetic_banknote,
    synthetic_demgbp_returns,
)
from zvmcmc.data_io import _jsonable

# ---------------------------------------------------------------------------
# CSV loaders


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_design_matrix_roundtrip(tmp_path):
    p = write(tmp_path, "d.csv", "x1,y,x2\n1.5,0,2.0\n-0.5,1,0.25\n3.0,1,1.0\n0.0,0,4.0\n")
    data = load_design_matrix(p)
    assert data.design.shape[0] == 4 and data.dimension == 2
    # y column removed, regressor order preserved
    assert np.allclose(data.design[:, 0], [1.5, -0.5, 3.0, 0.0])
    assert np.allclose(data.design[:, 1], [2.0, 0.25, 1.0, 4.0])
    assert np.allclose(data.response, [0, 1, 1, 0])


def test_load_design_matrix_intercept(tmp_path):
    p = write(tmp_path, "d.csv", "x1,y\n1.0,0\n2.0,1\n-1.0,1\n")
    data = load_design_matrix(p, add_intercept=True)
    assert data.dimension == 2
    assert np.all(data.design[:, 0] == 1.0)


def test_load_design_matrix_errors(tmp_path):
    with pytest.raises(DataLoadError):
        load_design_matrix(write(tmp_path, "a.csv", ""))
    with pytest.raises(DataLoadError):
        load_design_matrix(write(tmp_path, "b.csv", "x1,x2\n1,2\n"))  # no y
    with pytest.raises(DataLoadError):
        load_design_matrix(write(tmp_path, "c.csv", "x1,y\n1,0\n2\n"))  # ragged
    with pytest.raises(DataLoadError):
        load_design_matrix(write(tmp_path, "d.csv", "x1,y\nfoo,0\n1,1\n"))
    with pytest.raises(DataLoadError):
        load_design_matrix(write(tmp_path, "e.csv", "x1,y\n1,2\n2,0\n"))  # y not 0/1
    # each message names the file, and the line when one line is at fault
    for name, text, where in (
        ("f.csv", "y\n1\n0\n", ":1: no regressor columns besides 'y'"),
        ("g.csv", "x1,y\n", ":2: no data rows"),
        # equal columns: the design is rank deficient
        ("h.csv", "x1,x2,y\n1,1,0\n2,2,1\n3,3,1\n", ": design is rank deficient"),
    ):
        path = write(tmp_path, name, text)
        with pytest.raises(DataLoadError) as raised:
            load_design_matrix(path)
        assert str(raised.value) == f"{path}{where}"


@pytest.mark.parametrize("load", [load_design_matrix, load_returns])
def test_csv_readers_reject_an_empty_file_at_line_1(tmp_path, load):
    p = write(tmp_path, "empty.csv", "")
    with pytest.raises(DataLoadError, match=r"empty\.csv:1: file is empty"):
        load(p)


def test_csv_readers_skip_blank_rows_and_keep_line_numbers(tmp_path):
    with pytest.raises(DataLoadError, match=r"d\.csv:5: design row is all zeros"):
        load_design_matrix(write(tmp_path, "d.csv", "x1,y\n1,1\n\n , \n0,0\n"))
    with pytest.raises(DataLoadError, match=r"p\.csv:4: could not parse price='abc'"):
        load_returns(write(tmp_path, "p.csv", "date,price\n\n2020-01-01,1.0\n2020-01-02,abc\n"))
    with pytest.raises(DataLoadError, match=r"q\.csv:4: expected at least 2 fields, got 1"):
        load_returns(write(tmp_path, "q.csv", "date,price\n2020-01-01,1.0\n\n2020-01-02\n"))
    data = load_design_matrix(write(tmp_path, "ok.csv", "x1,y\n\n1,1\n,\n2,0\n"))
    assert np.array_equal(data.design[:, 0], [1.0, 2.0])


def test_load_price_series_and_returns(tmp_path):
    p = write(tmp_path, "p.csv", "date,price\n2001-01-01,100.0\n2001-01-02,101.0\n2001-01-03,99.99\n")
    returns = load_returns(p)
    assert returns.length == 2
    assert returns.returns[0] == pytest.approx(0.01)
    assert returns.returns[1] == pytest.approx((99.99 - 101.0) / 101.0)
    assert returns.h0 == pytest.approx(np.var(returns.returns, ddof=1))


def test_load_price_series_errors(tmp_path):
    for text, message in [
        ("time,price\n1,2\n", r"a\.csv:1: expected header date,price"),
        ("date,price\nd1,-3\nd2,2\nd3,2\n", r"a\.csv: prices must be finite and > 0"),
        ("date,price\nd1,inf\nd2,2\nd3,2\n", r"a\.csv: prices must be finite and > 0"),
        ("date,price\nd1,1\nd2,2\n", r"a\.csv: need at least 3 prices, got 2"),
    ]:
        with pytest.raises(DataLoadError, match=message):
            load_returns(write(tmp_path, "a.csv", text))


def test_constant_prices_rejected(tmp_path):
    with pytest.raises(DataLoadError, match=r"c\.csv: returns have zero sample variance"):
        load_returns(write(tmp_path, "c.csv", "date,price\na,5\nb,5\nc,5\nd,5\n"))


# ---------------------------------------------------------------------------
# chain round trip


def test_chain_roundtrip_is_exact(tmp_path):
    chain = rw_metropolis(GaussianTarget(), SamplerConfig(length=50, burn_in=10, seed=3))
    draws, gradients = chain.draws.copy(), chain.gradients.copy()
    draws[:3, 0] = gradients[-3:, 0] = [-0.0, 1e-320, 5e300]
    path = tmp_path / "chain.csv"
    export_chain(ChainOutput(draws, gradients, accept_rate=1.0), path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], np.arange(50))
    # bit for bit: the sign of -0.0 and the subnormal survive
    assert back[:, 1:].tobytes() == np.hstack([draws, gradients]).tobytes()


def test_export_chain_bytes(tmp_path):
    chain = ChainOutput(draws=np.array([[-0.0, 1e-320], [5e300, 0.1]]),
                        gradients=np.array([[1.0, -2.5], [0.5, 3.0]]),
                        accept_rate=1.0)
    path = tmp_path / "chain.csv"
    export_chain(chain, path)
    assert path.read_bytes() == (
        b"iter,beta_1,beta_2,grad_1,grad_2\r\n"
        b"0,-0,9.9998886718268301e-321,1,-2.5\r\n"
        b"1,5.0000000000000003e+300,0.10000000000000001,0.5,3\r\n"
    )


# ---------------------------------------------------------------------------
# study export


def test_export_study_sanitizes_nonfinite(tmp_path):
    report = {
        "a": float("inf"),
        "b": float("nan"),
        "c": np.float64(2.5),
        "d": [np.int64(3), (1, 2)],
    }
    path = tmp_path / "r.json"
    export_study(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == {"a": "inf", "b": None, "c": 2.5, "d": [3, [1, 2]]}


def test_jsonable_writes_a_dataclass_as_its_fields_and_leaves_a_dataclass_class_alone():
    report = ReferenceReport(point=np.array([1.0, np.nan]), lower=np.array([0.5, -np.inf]),
                             upper=np.array([1.5, np.inf]), length=np.int64(100),
                             asvar=np.array([2.0, 3.0]))
    written = _jsonable({"reference": report})["reference"]
    assert list(written) == ["point", "lower", "upper", "length", "asvar"]
    assert written == {"point": [1.0, None], "lower": [0.5, "-inf"], "upper": [1.5, "inf"],
                       "length": 100, "asvar": [2.0, 3.0]}
    assert type(written["length"]) is int
    assert _jsonable(ReferenceReport) is ReferenceReport


# ---------------------------------------------------------------------------
# synthetic datasets


def test_synthetic_banknote_shape_and_determinism():
    a = synthetic_banknote(seed=101)
    b = synthetic_banknote(seed=101)
    assert a.design.shape[0] == 200 and a.dimension == 4
    assert np.array_equal(a.design, b.design)
    assert np.array_equal(a.response, b.response)
    assert a.response.sum() == 100  # balanced classes
    c = synthetic_banknote(seed=102)
    assert not np.array_equal(a.design, c.design)
    with pytest.raises(ValueError, match="^n must be >= 4, the number of design columns, got 1$"):
        synthetic_banknote(n=1)


def test_synthetic_banknote_needs_a_row_per_design_column():
    with pytest.raises(ValueError, match="^n must be >= 4, the number of design columns, got 3$"):
        synthetic_banknote(n=3)
    data = synthetic_banknote(n=4)
    assert data.design.shape == (4, 4) and data.response.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_synthetic_demgbp_returns_frozen():
    a = synthetic_demgbp_returns()
    assert a.length == 1974
    b = synthetic_demgbp_returns(seed=333, length=1974)
    assert np.array_equal(a.returns, b.returns)
    assert a.h0 == pytest.approx(np.var(a.returns, ddof=1))
    short = synthetic_demgbp_returns(seed=333, length=50)
    assert short.length == 50


@pytest.mark.parametrize("seed", [333, 1, 2, 99])
@pytest.mark.parametrize("length", [1974, 50, 2])
def test_synthetic_demgbp_returns_equal_the_scalar_draw_loop(seed, length):
    series = synthetic_demgbp_returns(seed=seed, length=length)
    returns, h0 = reference_demgbp_returns(seed, length)
    assert np.array_equal(series.returns, returns)
    assert series.h0 == h0
