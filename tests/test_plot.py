"""Sparkline and SVG rendering."""

import xml.etree.ElementTree as ET

import pytest

from gridwatch.plot import ABSENT, BLOCKS, render_svg, sparkline


def pts(*values, t0=1000, interval=60):
    """``values`` as the ``(start, interval, values)`` column a store fetch returns."""
    return t0, interval, list(values)


def polylines(doc):
    """Each polyline's ``(x, y)`` points, in document order."""
    return [[tuple(map(float, xy.split(","))) for xy in el.get("points").split()]
            for el in ET.fromstring(doc).iter() if el.tag.endswith("polyline")]


# -- sparklines ---------------------------------------------------------------


def test_sparkline_has_requested_width():
    line = sparkline(pts(*range(100)), width=20)
    assert len(line) == 20


def test_sparkline_scales_min_to_max():
    line = sparkline(pts(0.0, 50.0, 100.0), width=3)
    assert line[0] == BLOCKS[1]   # the minimum still renders visibly
    assert line[-1] == BLOCKS[-1]
    assert line[0] < line[1] < line[2]


def test_sparkline_marks_absent_buckets():
    line = sparkline(pts(1.0, None, None, None, 2.0, 3.0), width=6)
    assert line[1] == ABSENT and line[2] == ABSENT
    assert ABSENT not in (line[0], line[4], line[5])


def test_sparkline_constant_series_renders_full_blocks():
    assert sparkline(pts(5.0, 5.0, 5.0), width=3) == BLOCKS[-1] * 3


def test_sparkline_empty_or_all_absent_is_dots():
    assert sparkline(pts(), width=8) == ABSENT * 8
    assert sparkline(pts(None, None), width=4) == ABSENT * 4


def test_sparkline_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        sparkline(pts(1.0), width=0)


def test_sparkline_downsamples_by_bucket_mean():
    # 4 values into 2 buckets: means 1.0 and 100.0 -> low then high
    line = sparkline(pts(1.0, 1.0, 100.0, 100.0), width=2)
    assert line[0] == BLOCKS[1] and line[1] == BLOCKS[-1]


def test_sparkline_bucket_of_points_whose_sum_overflows_takes_their_finite_mean():
    # mean 6.7e307 on a 0..1e308 scale
    assert sparkline(pts(1e308, 1e308, 0.0), 1) == BLOCKS[5]


def test_sparkline_scales_readings_of_opposite_sign_near_the_float_limit():
    # max - min overflows; the scale runs from -1e308 to 1e308 all the same.
    values = pts(*[-1e308, 1e308] * 15)
    assert sparkline(values, 30) == (BLOCKS[1] + BLOCKS[-1]) * 15
    assert sparkline(values, 10) == (BLOCKS[2] + BLOCKS[5]) * 5  # bucket means -1e308/3 and 1e308/3


# -- SVG ----------------------------------------------------------------------


def test_render_svg_is_wellformed_xml_with_polylines():
    doc = render_svg({"power": pts(1.0, 2.0, 3.0)}, title="Power <W>")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "Power &lt;W&gt;" in doc  # escaped in the markup
    assert "Power <W>" in {el.text for el in root.iter() if el.text}
    assert doc.count("<polyline") == 1
    assert doc.endswith("\n")


def test_render_svg_splits_runs_at_gaps():
    doc = render_svg({"s": pts(1.0, 2.0, None, 3.0, 4.0)})
    assert doc.count("<polyline") == 2


def test_render_svg_draws_threshold_line():
    doc = render_svg({"s": pts(1.0, 2.0)}, threshold=1.5)
    assert 'class="threshold"' in doc
    assert "stroke-dasharray" in doc
    assert render_svg({"s": pts(1.0, 2.0)}).count("threshold") == 0


def test_render_svg_threshold_extends_value_axis():
    doc = render_svg({"s": pts(10.0, 12.0)}, threshold=20.0)
    assert ">20<" in doc  # the axis label reaches the threshold


def test_render_svg_multiple_series_get_distinct_colors():
    doc = render_svg({"a": pts(1.0, 2.0), "b": pts(2.0, 1.0)})
    colors = {line.split('stroke="')[1].split('"')[0] for line in doc.splitlines() if "<polyline" in line}
    assert len(colors) == 2
    assert doc.count("<text") >= 4  # axis labels + one legend entry per series


def test_render_svg_columns_of_other_starts_and_intervals_share_one_time_axis():
    left, right = 60.0, 880.0  # the plot area's margins
    doc = render_svg({"a": pts(1.0, 2.0, 3.0, 4.0, t0=1000, interval=60), "b": pts(2.0, 3.0, t0=940, interval=120)})
    a, b = polylines(doc)
    assert [x for x, _ in b] == [left, left + (1060 - 940) / (1180 - 940) * (right - left)]  # the earliest first slot
    assert a[-1][0] == right  # the latest last slot
    assert a[0][0] == left + (1000 - 940) / (1180 - 940) * (right - left)


def test_render_svg_skips_a_column_with_no_values_beside_a_populated_one():
    doc = render_svg({"empty": pts(t0=0), "s": pts(1.0, 2.0)})
    assert [[x for x, _ in line] for line in polylines(doc)] == [[60.0, 880.0]]  # its start is not on the axis


def test_render_svg_no_data_message():
    doc = render_svg({"s": pts(None, None)})
    assert "no data" in doc
    assert "<polyline" not in doc
    ET.fromstring(doc)
