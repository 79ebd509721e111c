import pytest

from krrlab import DataFormatError, emit_plot


def _write_csv(path, rows, header="n,a,b"):
    path.write_text("\n".join([header, *rows]) + "\n")


def test_two_point_polyline(tmp_path):
    csv = tmp_path / "t.csv"
    _write_csv(csv, ["1,1,10", "2,2,20"])
    out = tmp_path / "t.svg"
    blob = emit_plot(str(csv), ["a"], str(out))
    text = blob.decode()
    assert text.count("<polyline") == 1
    assert text.startswith("<svg")
    pts = text.split('points="')[1].split('"')[0]
    assert len(pts.split()) == 2


def test_byte_determinism(tmp_path):
    csv = tmp_path / "t.csv"
    _write_csv(csv, ["1,3,10", "2,1,30", "3,2,20"])
    b1 = emit_plot(str(csv), ["a", "b"], str(tmp_path / "p1.svg"))
    b2 = emit_plot(str(csv), ["a", "b"], str(tmp_path / "p2.svg"))
    assert b1 == b2
    assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()


def test_missing_column(tmp_path):
    csv = tmp_path / "t.csv"
    _write_csv(csv, ["1,1,1"])
    with pytest.raises(DataFormatError, match="nope"):
        emit_plot(str(csv), ["nope"], str(tmp_path / "x.svg"))


def test_log_scale_for_wide_range(tmp_path):
    csv = tmp_path / "t.csv"
    _write_csv(csv, ["1,0.001,1", "2,1,1", "3,1000,1"])
    blob = emit_plot(str(csv), ["a"], str(tmp_path / "log.svg"))
    assert b"log scale" in blob
    blob2 = emit_plot(str(csv), ["b"], str(tmp_path / "lin.svg"))
    assert b"log scale" not in blob2


@pytest.mark.parametrize("text,message", [("", "has no header"), ("n,a,b\n", "has no data rows")],
                         ids=["empty", "header-only"])
def test_csv_without_header_or_rows(tmp_path, text, message):
    csv = tmp_path / "t.csv"
    csv.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        emit_plot(str(csv), ["a"], str(tmp_path / "x.svg"))
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("rows", [["1,1e308,1", "2,-1e308,1"], ["-1e308,1,1", "1e308,2,1"]],
                         ids=["y", "n"])
def test_range_that_overflows_is_refused(tmp_path, rows):
    # every value is finite, but max - min is not: the SVG would hold nan and inf
    csv = tmp_path / "t.csv"
    _write_csv(csv, rows)
    with pytest.raises(DataFormatError, match="range overflows"):
        emit_plot(str(csv), ["a"], str(tmp_path / "x.svg"))
    assert not (tmp_path / "x.svg").exists()


def test_widest_finite_range_draws_finite_coordinates(tmp_path):
    csv = tmp_path / "t.csv"
    _write_csv(csv, ["1,8e307,1", "2,0,1", "3,-8e307,1"])
    text = emit_plot(str(csv), ["a"], str(tmp_path / "x.svg")).decode()
    assert "nan" not in text and "inf" not in text
