"""Dataset parsing, CSV writing, and synthetic generation."""

import hashlib
import math

import numpy as np
import pytest

from rampsvm import (
    DataFormat,
    DataFormatError,
    Dataset,
    gen_synthetic,
    parse_dataset,
    write_csv,
)
from rampsvm import datasets
from rampsvm.datasets import counterexample_dataset


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    ds = Dataset(
        X=rng.standard_normal((6, 3)) * 1e3,
        y=rng.choice([-1.0, 1.0], size=6),
    )
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = parse_dataset(path)
    # 17 significant digits reproduce float64 bit for bit.
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_csv_parsing_basics(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("+1,0.5,-2\n\n-1,1e-3,4\n")
    ds = parse_dataset(path)
    assert ds.m == 2 and ds.n == 2
    assert np.array_equal(ds.y, [1.0, -1.0])
    assert ds.X[1, 0] == 1e-3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2,1.0\n", "label"),
        ("+1\n", "line 1"),
        ("+1,1.0\n-1,1.0,2.0\n", "line 2"),
        ("+1,abc\n", "bad number"),
        ("+1,inf\n", "non-finite"),
        ("", "no samples"),
    ],
)
def test_csv_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        parse_dataset(path)
    assert fragment in str(err.value)


# Malformed CSV text and the full DataFormatError message it raises.  The
# block parse rejects each of these and the per-line loop reports the first
# bad line.
CSV_ERROR_MESSAGES = [
    ("2,1.0\n", "line 1: label must be +1 or -1, got '2'"),
    ("0,1.0\n", "line 1: label must be +1 or -1, got '0'"),
    ("x,1.0\n", "line 1: bad label 'x'"),
    ("nan,1.0\n", "line 1: label must be +1 or -1, got 'nan'"),
    ("+1,nan\n", "line 1: non-finite value 'nan'"),
    ("+1,inf\n", "line 1: non-finite value 'inf'"),
    ("-1,1.0,-inf\n", "line 1: non-finite value '-inf'"),
    ("+1,1.0\n-1,1.0,2.0\n", "line 2: expected 1 features, got 2"),
    ("+1,1.0\n# note\n", "line 2: expected label and at least one feature"),
    ("+1,#1.0\n", "line 1: bad number '#1.0'"),
    ("+1,,2.0\n", "line 1: bad number ''"),
    ("+1,2.0,\n", "line 1: bad number ''"),
    ('"+1",1.0\n', "line 1: bad label '\"+1\"'"),
    ('+1,"1.0"\n', "line 1: bad number '\"1.0\"'"),
    ("+1;1.0\n", "line 1: expected label and at least one feature"),
    ("+1\n", "line 1: expected label and at least one feature"),
    ("+1,abc\n", "line 1: bad number 'abc'"),
    ("+1,0x10\n", "line 1: bad number '0x10'"),
    ("+1,1.0\n+1,abc\n3,1.0\n", "line 2: bad number 'abc'"),
    ("+1,1.0\n\n-1,1,2\n+1,nan\n", "line 3: expected 1 features, got 2"),
]


@pytest.mark.parametrize("text, message", CSV_ERROR_MESSAGES)
def test_csv_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        parse_dataset(path)
    assert str(err.value) == message


def test_csv_empty_file_message(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n  \n")
    with pytest.raises(DataFormatError) as err:
        parse_dataset(path)
    assert str(err.value) == f"{path}: no samples found"


# Well-formed CSV text and the (X, y) it parses to.  1_0 and the
# Arabic-Indic digits are syntax that only Python's float accepts, so the
# per-line loop parses them; the block parse takes the rest.
CSV_ACCEPTED = [
    ("+1,1_0\n-1,2.5\n", [[10.0], [2.5]], [1.0, -1.0]),
    ("+1,\u0663.\u0665\n-1,2\n", [[3.5], [2.0]], [1.0, -1.0]),
    (" +1 , 0.5 ,\t-2 \n-1,  1e-3,4\n", [[0.5, -2.0], [1e-3, 4.0]], [1.0, -1.0]),
    ("+1,0.5,-2\r\n-1,1e-3,4\r\n", [[0.5, -2.0], [1e-3, 4.0]], [1.0, -1.0]),
    ("\n+1,0.5\n\n  \n-1,1.5\n\n", [[0.5], [1.5]], [1.0, -1.0]),
    ("1e0,0.5\n-1e0,-0\n1.0,2\n", [[0.5], [-0.0], [2.0]], [1.0, -1.0, 1.0]),
]


@pytest.mark.parametrize("text, X, y", CSV_ACCEPTED)
def test_csv_accepted_syntax(tmp_path, text, X, y):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode())
    ds = parse_dataset(path)
    assert ds.X.tobytes() == np.array(X).tobytes()
    assert ds.y.tobytes() == np.array(y).tobytes()


def test_csv_block_parse_skips_line_loop(tmp_path, monkeypatch):
    # Well-formed files never reach the per-line loop; a bad file does.
    path = tmp_path / "ok.csv"
    write_csv(gen_synthetic(20, 3.0, 0.1, 4), path)
    calls = []

    def line_loop(lines):
        calls.append(len(lines))
        return parse_line_loop(lines)

    parse_line_loop = datasets._parse_csv_lines
    monkeypatch.setattr(datasets, "_parse_csv_lines", line_loop)
    parse_dataset(path)
    assert calls == []
    path.write_text("+1,1.0\n-1,2,3\n")
    with pytest.raises(DataFormatError):
        parse_dataset(path)
    assert calls == [2]


def test_csv_round_trip_matches_line_loop(tmp_path):
    # write_csv -> parse_dataset on random data with extreme and signed
    # values: the block parse returns X and y bytewise, and so does the
    # per-line loop it replaces on well-formed files.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((300, 4)) * np.exp(rng.uniform(-30, 30, (300, 4)))
    X[:8, 0] = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -2.2250738585072014e-308, 1e16, 1e-5]
    ds = Dataset(X=X, y=rng.choice([-1.0, 1.0], size=300))
    path = tmp_path / "rand.csv"
    write_csv(ds, path)
    back = parse_dataset(path)
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()
    lines = list(enumerate(path.read_text().splitlines(), start=1))
    loop = datasets._parse_csv_lines(lines)
    assert loop.X.tobytes() == back.X.tobytes()
    assert loop.y.tobytes() == back.y.tobytes()


def test_write_csv_refuses_no_features(tmp_path):
    # parse_dataset rejects a CSV without feature columns, so write_csv
    # does not write one.
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="no features"):
        write_csv(Dataset(X=np.zeros((3, 0)), y=[1.0, -1.0, 1.0]), path)
    assert not path.exists()


# LIBSVM text and the (X, y) it parses to, bitwise: indices out of order,
# a line without features and a signed zero.
LIBSVM_ACCEPTED = [
    ("+1 1:0.5 3:-2.0\n-1 2:1.25\n", [[0.5, 0.0, -2.0], [0.0, 1.25, 0.0]],
     [1.0, -1.0]),
    ("+1 3:1 1:2\n-1\n+1 2:-0.0\n",
     [[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, -0.0, 0.0]], [1.0, -1.0, 1.0]),
]


def test_libsvm_parsing(tmp_path):
    path = tmp_path / "toy.libsvm"
    for text, X, y in LIBSVM_ACCEPTED:
        path.write_text(text)
        ds = parse_dataset(path, DataFormat.LIBSVM)
        assert ds.X.tobytes() == np.array(X).tobytes()
        assert ds.y.tobytes() == np.array(y).tobytes()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("+1 0:1.0\n", "1-based"),
        ("+1 2:1.0 2:3.0\n", "duplicate"),
        ("+1 x\n", "line 1"),
        ("+1\n", "no feature"),
        ("3 1:1.0\n", "label"),
        ("+1 a:1.0\n", "line 1: bad feature index 'a'"),
        # A line's value is parsed only after its index passes.
        ("+1 2:x 2:1\n", "line 1: bad number 'x'"),
        ("+1 1:1 1:x\n", "line 1: duplicate feature index 1"),
        ("+1 1:inf\n", "line 1: non-finite value 'inf'"),
    ],
)
def test_libsvm_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.libsvm"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        parse_dataset(path, DataFormat.LIBSVM)
    assert fragment in str(err.value)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("+1,1.0\n")
    with pytest.raises(ValueError, match="unknown format 'csv'"):
        parse_dataset(path, "csv")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_dataset(tmp_path / "nope.csv")


def test_gen_synthetic_structure():
    ds = gen_synthetic(n_per_class=8, separation=4.0, outlier_fraction=0.0, seed=0)
    assert ds.m == 16 and ds.n == 2
    assert int(np.sum(ds.y == 1.0)) == 8
    # Positive blob sits right of the negative blob by ~separation.
    pos = ds.X[ds.y == 1.0, 0].mean()
    neg = ds.X[ds.y == -1.0, 0].mean()
    assert pos - neg > 1.0


def test_gen_synthetic_outliers():
    frac = 0.25
    ds = gen_synthetic(n_per_class=8, separation=4.0, outlier_fraction=frac, seed=1)
    expected = math.ceil(frac * 16)
    # Outliers are displaced far onto the wrong side of their own class.
    wrong_side = int(np.sum(ds.y * ds.X[:, 0] < -10.0))
    assert wrong_side == expected


def test_gen_synthetic_deterministic():
    a = gen_synthetic(n_per_class=5, separation=2.0, outlier_fraction=0.1, seed=7)
    b = gen_synthetic(n_per_class=5, separation=2.0, outlier_fraction=0.1, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = gen_synthetic(n_per_class=5, separation=2.0, outlier_fraction=0.1, seed=8)
    assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((8, 4.0, 0.1, 15), "44f8243d5504c6c9"),
        ((4000, 4.0, 0.1, 0), "0c18aaea4608e517"),
        ((500, 3.0, 0.05, 0), "ad2029875c14465c"),
    ],
)
def test_gen_synthetic_bits_pinned(args, digest):
    # The acceptance batch, the benchmark inputs and every trajectory pin
    # rest on these bits: the outliers' draws keep their order.
    ds = gen_synthetic(*args)
    got = hashlib.sha256(ds.X.tobytes() + ds.y.tobytes()).hexdigest()
    assert got[:16] == digest


@pytest.mark.parametrize(
    "dataset, digest",
    [
        pytest.param(lambda: gen_synthetic(4000, 4.0, 0.1, 0),
                     "fda01d45c3c6a024", id="m8000"),
        pytest.param(lambda: gen_synthetic(8, 4.0, 0.1, 15),
                     "da0a163618252eeb", id="m16"),
        pytest.param(counterexample_dataset, "747f5ef6473fbe1b",
                     id="counterexample"),
    ],
)
def test_write_csv_bytes_pinned(tmp_path, dataset, digest):
    # A certificate reproduces only if the written file does.  A path
    # ending in .gz gets the same plain bytes: np.savetxt would gzip it if
    # write_csv passed it the path instead of an open handle.
    ds = dataset()
    write_csv(ds, tmp_path / "d.csv")
    write_csv(ds, tmp_path / "d.csv.gz")
    data = (tmp_path / "d.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest
    assert (tmp_path / "d.csv.gz").read_bytes() == data


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(n_per_class=0, separation=1.0, outlier_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(n_per_class=3, separation=1.0, outlier_fraction=1.5, seed=0)
    # separation and seed are checked before any sample is drawn, with a
    # message that names them.  A separation whose outlier offset
    # 10 * separation overflows is refused only when outliers are placed.
    for sep in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="separation"):
            gen_synthetic(n_per_class=2, separation=sep, outlier_fraction=0.0, seed=0)
    with pytest.raises(ValueError, match="separation"):
        gen_synthetic(n_per_class=2, separation=1e308, outlier_fraction=0.5, seed=0)
    assert gen_synthetic(2, 1e308, 0.0, 0).m == 4
    with pytest.raises(ValueError, match="seed"):
        gen_synthetic(n_per_class=2, separation=1.0, outlier_fraction=0.0, seed=-1)
