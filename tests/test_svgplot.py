import math
import xml.etree.ElementTree as ET

import pytest

from vropt.svgplot import write_line_plot

SVG = "{http://www.w3.org/2000/svg}"


def plot(path, series):
    write_line_plot(path, series, title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize("series,message", [
    ([("a", [1.0, 2.0], [1.0, 2.0]), ("b", [1.0, 2.0], [1.0])],
     "series xs and ys differ in length"),
    ([("a", [1.0, 2.0], [0.0, -1.0])], "no plottable points"),
    ([("a", [1.0, 2.0, 3.0], [math.nan, math.inf, 0.0]),
      ("b", [math.inf, math.nan], [1.0, 2.0])], "no plottable points"),
    ([], "no plottable points"),
])
def test_refuses_and_writes_nothing(tmp_path, series, message):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError) as info:
        plot(path, series)
    assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("series", [
    # every kept point at one x
    [("a", [3.0, 3.0], [1.0, 10.0]), ("b", [3.0], [0.5])],
    # every kept point at one y; the dropped ones do not widen the range
    [("a", [1.0, 2.0, 3.0], [2.0, 2.0, 0.0]), ("b", [0.5, 4.0], [2.0, 2.0])],
    # a single point: both ranges have zero width
    [("a", [1.0], [1.0])],
])
def test_a_zero_width_range_still_draws_every_series(tmp_path, series):
    path = tmp_path / "p.svg"
    plot(path, series)
    root = ET.parse(path).getroot()
    lines = root.findall(f"{SVG}polyline")
    assert len(lines) == len(series)
    for line, (_, xs, ys) in zip(lines, series):
        coords = [tuple(map(float, p.split(",")))
                  for p in line.get("points").split()]
        kept = [p for p in zip(xs, ys) if math.isfinite(p[1]) and p[1] > 0]
        assert len(coords) == len(kept)
        assert all(math.isfinite(c) for xy in coords for c in xy)
