import os

import numpy as np
import pytest

from krrlab import Dataset, DataFormatError, export_libsvm, parse_libsvm

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample200.libsvm")


def test_basic_line(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("1 1:0.5 3:2.0\n")
    data = parse_libsvm(str(p), 3)
    assert data.responses[0] == 1.0
    assert np.array_equal(data.features, [[0.5, 0.0, 2.0]])


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("\n1 1:1\n\n-2 2:3.5\n\n")
    data = parse_libsvm(str(p), 2)
    assert data.n == 2
    assert np.array_equal(data.responses, [1.0, -2.0])


def test_non_increasing_index(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("1 3:1 2:1\n")
    with pytest.raises(DataFormatError, match="non-increasing index at line 1"):
        parse_libsvm(str(p), 3)


def test_duplicate_index(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("1 2:1 2:1\n")
    with pytest.raises(DataFormatError, match="non-increasing"):
        parse_libsvm(str(p), 3)


def test_index_out_of_range(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("0 1:1\n-1 5:2\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_libsvm(str(p), 4)


def test_malformed_token(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("1 1:\n")
    with pytest.raises(DataFormatError, match="malformed token"):
        parse_libsvm(str(p), 2)
    p.write_text("x 1:1\n")
    with pytest.raises(DataFormatError, match="bad label"):
        parse_libsvm(str(p), 2)


def test_non_ascii_byte(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_bytes(b"1 1:1\n2 1:\xe9\n")
    with pytest.raises(DataFormatError, match="non-ASCII byte at line 2"):
        parse_libsvm(str(p), 2)


def test_non_finite_label(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("1 1:1\n\nnan 1:2\n")
    with pytest.raises(DataFormatError, match="non-finite label at line 3"):
        parse_libsvm(str(p), 2)


def test_directory_is_an_os_error(tmp_path):
    with pytest.raises(IsADirectoryError):
        parse_libsvm(str(tmp_path), 2)


def test_carriage_return_line_ends(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_bytes(b"1 1:1\r\n-2 2:3.5\r3 1:2\n")
    data = parse_libsvm(str(p), 2)
    assert np.array_equal(data.responses, [1.0, -2.0, 3.0])


@pytest.mark.parametrize("line,message", [
    (b"1 1:2:3", "malformed token '1:2:3' at line 2"),
    (b"1 1:", "malformed token '1:' at line 2"),
    (b"1 :5", "malformed token ':5' at line 2"),
    (b"1 a:1", "malformed token 'a:1' at line 2"),
    (b"1 1.0:2", "malformed token '1.0:2' at line 2"),
    (b"1 7", "malformed token '7' at line 2"),
    (b"1 0:1", "non-increasing index at line 2"),
    (b"1 -1:2", "non-increasing index at line 2"),
    (b"1 3:1 2:1", "non-increasing index at line 2"),
    (b"1 2:1 9:1", "index 9 out of range (d=4) at line 2"),
    (b"1 1:nan", "non-finite value at line 2"),
    (b"1 1:inf", "non-finite value at line 2"),
    (b"nan 1:1", "non-finite label at line 2"),
    (b"x 1:1", "bad label 'x' at line 2"),
    (b"1 1:\xe9", "non-ASCII byte at line 2"),
    # the first bad token of a line decides the message
    (b"1 9:1 x:1", "index 9 out of range (d=4) at line 2"),
    (b"1 3:1 2:x", "malformed token '2:x' at line 2"),
    (b"1 2:inf 1:1", "non-finite value at line 2"),
    (b"1 2:1 2:nan", "non-increasing index at line 2"),
])
def test_malformed_line_message(tmp_path, line, message):
    p = tmp_path / "toy.libsvm"
    p.write_bytes(b"1 1:1 4:2\n" + line + b"\n3 2:1\n")
    with pytest.raises(DataFormatError) as excinfo:
        parse_libsvm(str(p), 4)
    assert str(excinfo.value) == message


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 9))
    X[rng.random((40, 9)) < 0.3] = 0.0
    y = rng.standard_normal(40) * 1e3
    data = Dataset(X, y)
    path = str(tmp_path / "rt.libsvm")
    export_libsvm(data, path)
    back = parse_libsvm(path, 9)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.responses, data.responses)


def test_fixture_parses(tmp_path):
    data = parse_libsvm(FIXTURE, 24)
    assert data.n == 200 and data.d == 24
    out = str(tmp_path / "copy.libsvm")
    export_libsvm(data, out)
    again = parse_libsvm(out, 24)
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.responses, data.responses)


def test_random_round_trip_with_zeros_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((300, 25)) * 10.0 ** rng.integers(-300, 300, (300, 25))
    X[rng.random((300, 25)) < 0.4] = 0.0
    X[7] = 0.0                              # a line with a label only
    X[8, :] = 1.0                           # a line with every index
    y = rng.standard_normal(300) * 10.0 ** rng.integers(-20, 20, 300)
    path = str(tmp_path / "rt.libsvm")
    export_libsvm(Dataset(X, y), path)
    back = parse_libsvm(path, 25)
    assert back.features.tobytes() == X.tobytes()
    assert back.responses.tobytes() == y.tobytes()


@pytest.mark.parametrize("content,d,message", [
    (b"1 1:1\n", 0, "d must be >= 1"),
    (b"", 4, "no records in"),
    (b"\n\n", 4, "no records in"),
], ids=["d-0", "empty", "blank-lines"])
def test_no_records_or_width_rejected(tmp_path, content, d, message):
    p = tmp_path / "toy.libsvm"
    p.write_bytes(content)
    with pytest.raises(DataFormatError, match=message):
        parse_libsvm(str(p), d)
