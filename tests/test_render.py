"""SVG output structure for scenes and size charts."""

import math
import xml.etree.ElementTree as ET

import pytest

from fformation.characterization import SizeStats, characterize_corpus
from fformation.core import AgentPose, Frame, GroupSet, ValidationError
from fformation.render import render_frame_svg, render_size_chart_svg


def square_frame():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    agents = tuple(
        AgentPose.make(i + 1, x, y, math.pi / 4 * (2 * i + 1)) for i, (x, y) in enumerate(pts)
    )
    return Frame(frame_id=0, agents=agents, truth=GroupSet.from_iterable([[1, 2, 3, 4]]))


def test_scene_svg_structure():
    svg = render_frame_svg(square_frame())
    assert svg.count('class="agent-wedge"') == 4
    assert svg.count('class="group-hull"') == 1
    assert svg.count('class="group-center"') == 1
    assert 'class="axes"' in svg
    ET.fromstring(svg)  # well-formed XML


def test_empty_frame_renders_axes_only():
    svg = render_frame_svg(Frame(frame_id=0, agents=()))
    assert 'class="axes"' in svg
    assert "agent-wedge" not in svg
    assert "group-hull" not in svg
    ET.fromstring(svg)


def test_ungrouped_agents_still_drawn():
    frame = Frame(
        frame_id=0,
        agents=(
            AgentPose.make(1, 0, 0, 0),
            AgentPose.make(2, 1, 0, 3),
            AgentPose.make(3, 5, 5, 1),
        ),
        truth=GroupSet.from_iterable([[1, 2]]),
    )
    svg = render_frame_svg(frame)
    assert svg.count('class="agent-wedge"') == 3
    assert svg.count('class="group-hull"') == 1


def test_two_member_hull_is_open_segment():
    frame = Frame(
        frame_id=0,
        agents=(AgentPose.make(1, 0, 0, 0), AgentPose.make(2, 2, 0, 3)),
        truth=GroupSet.from_iterable([[1, 2]]),
    )
    svg = render_frame_svg(frame)
    hull_line = next(line for line in svg.splitlines() if "group-hull" in line)
    assert " Z" not in hull_line


@pytest.mark.parametrize("positions, groups", [
    # Their span overflows.
    (((1e308, 0.0), (-1e308, 0.0)), []),
    # The axes through the origin lie beyond any finite position.
    (((-1.7e308, -1.7e308),), []),
    # Their group's centroid overflows.
    (((1.7e308, 0.0), (1.7e308, 1.0)), [[1, 2]]),
])
def test_a_frame_too_wide_to_draw_names_the_frame(positions, groups):
    agents = tuple(AgentPose.make(i + 1, x, y, 0.0) for i, (x, y) in enumerate(positions))
    frame = Frame(frame_id=7, agents=agents, truth=GroupSet.from_iterable(groups))
    with pytest.raises(ValidationError, match="^frame 7: coordinates span too wide a range to draw$"):
        render_frame_svg(frame)


def test_frames_far_out_but_drawable_render_finite_coordinates():
    for positions in (((0.0, 0.0), (1.7e308, 0.0)), ((1e300, 0.0), (2e300, 1e300)), ((5e-324, 0.0), (0.0, 5e-324))):
        agents = tuple(AgentPose.make(i + 1, x, y, 0.0) for i, (x, y) in enumerate(positions))
        svg = render_frame_svg(Frame(frame_id=7, agents=agents, truth=GroupSet.from_iterable([[1, 2]])))
        assert "nan" not in svg and "inf" not in svg
        ET.fromstring(svg)


def test_explicit_groups_override_truth():
    frame = square_frame()
    svg = render_frame_svg(frame, groups=GroupSet())
    assert "group-hull" not in svg


def test_size_chart_structure():
    stats = (
        SizeStats(size=2, count=5, mean_symmetry=0.0, mean_tightness=0.78),
        SizeStats(size=3, count=4, mean_symmetry=30.0, mean_tightness=0.80),
        SizeStats(size=4, count=2, mean_symmetry=45.0, mean_tightness=0.83),
    )
    svg = render_size_chart_svg(stats)
    assert svg.count('class="bar"') == 6  # two panels, three sizes each
    assert "Mean tightness" in svg and "Mean symmetry" in svg
    ET.fromstring(svg)


def test_size_chart_from_corpus():
    frame = square_frame()
    stats = characterize_corpus([frame])
    svg = render_size_chart_svg(stats)
    assert svg.count('class="bar"') == 2
    ET.fromstring(svg)
