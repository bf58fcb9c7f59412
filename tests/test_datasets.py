"""Canonical serialization round-trips and the pinned CSV loaders."""

import json
import math

import pytest

from fformation.core import AgentPose, Frame, GroupSet
from fformation.datasets import (
    CanonicalDataset,
    DatasetFormatError,
    load_babble,
    load_canonical,
    load_salsa,
    save_canonical,
    split_frames,
)

TWO_PI = 2.0 * math.pi


def _dataset():
    f0 = Frame(
        frame_id=0,
        agents=(
            AgentPose.make(1, 0.1 + 0.2, -0.7, math.pi * 0.999999, head_theta=1.23456789),
            AgentPose.make(2, 1.0 / 3.0, 2.0, 5.4321),
        ),
        timestamp=12.5,
        truth=GroupSet.from_iterable([[1, 2]]),
    )
    f1 = Frame(
        frame_id=3,
        agents=(AgentPose.make(7, -1.0, -2.0, 0.0),),
        truth=GroupSet(),  # annotated as groupless
    )
    f2 = Frame(frame_id=5, agents=(), timestamp=0.25)  # no truth at all
    return CanonicalDataset.from_frames([f1, f0, f2])


def test_from_frames_sorts_and_validates():
    ds = _dataset()
    assert [f.frame_id for f in ds.frames] == [0, 3, 5]
    assert len(ds) == 3
    with pytest.raises(Exception, match="duplicate frame_id"):
        CanonicalDataset.from_frames([ds.frames[0], ds.frames[0]])


def test_canonical_round_trip_is_lossless(tmp_path):
    ds = _dataset()
    path = tmp_path / "data.json"
    save_canonical(ds, path)
    loaded = load_canonical(path)
    assert loaded == ds  # exact equality, floats included
    # truth None and truth empty stay distinct
    assert loaded.frames[1].truth == GroupSet()
    assert loaded.frames[2].truth is None
    assert loaded.frames[0].agents[0].head_theta == ds.frames[0].agents[0].head_theta
    # a second save produces identical bytes
    path2 = tmp_path / "data2.json"
    save_canonical(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_canonical_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_canonical(path)

    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="top level"):
        load_canonical(path)

    path.write_text(json.dumps({"schema_version": 9, "frames": []}), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="schema_version"):
        load_canonical(path)

    path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="frames"):
        load_canonical(path)

    doc = {"schema_version": 1, "frames": [{"frame_id": 0}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="agents"):
        load_canonical(path)

    doc = {
        "schema_version": 1,
        "frames": [{"frame_id": 0, "agents": [{"id": 1, "x": "far", "y": 0, "body_theta": 0}]}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="'x' must be a number"):
        load_canonical(path)


def test_load_canonical_names_frame_on_duplicate_agent(tmp_path):
    doc = {
        "schema_version": 1,
        "frames": [
            {
                "frame_id": 4,
                "agents": [
                    {"id": 1, "x": 0, "y": 0, "body_theta": 0},
                    {"id": 1, "x": 1, "y": 0, "body_theta": 0},
                ],
            }
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="frame 4.*duplicate agent id 1"):
        load_canonical(path)


def _write_salsa(tmp_path, geo_rows, ann_rows):
    (tmp_path / "geometryGT.csv").write_text(
        "\n".join(",".join(str(v) for v in row) for row in geo_rows) + "\n", encoding="utf-8"
    )
    (tmp_path / "fformationGT.csv").write_text(
        "\n".join(ann_rows) + "\n", encoding="utf-8"
    )
    return tmp_path


def test_load_salsa_happy_path(tmp_path):
    geo = [
        [0.0, 1.0, 2.0, 0.5, 0.6, 3.0, 4.0, 1.5, 1.6, 5.0, 6.0, 2.5, 2.6],
        [3.0, 1.1, 2.1, -math.pi / 2, 0.0, 3.1, 4.1, 1.0, 1.0, 5.1, 6.1, 2.0, 2.0],
    ]
    ann = ['0.0,"1 2"', '3.0,"1 2 3"']
    ds = load_salsa(_write_salsa(tmp_path, geo, ann))
    assert len(ds) == 2
    f0, f1 = ds.frames
    assert [a.agent_id for a in f0.agents] == [1, 2, 3]
    assert f0.timestamp == 0.0 and f1.timestamp == 3.0
    assert f0.truth.as_sorted_lists() == [[1, 2]]
    assert f1.truth.as_sorted_lists() == [[1, 2, 3]]
    # negative orientation is normalized into [0, 2*pi)
    assert math.isclose(f1.agents[0].body_theta, 3 * math.pi / 2)
    assert f0.agents[0].head_theta == 0.6


def test_load_salsa_empty_annotation_means_no_groups(tmp_path):
    geo = [[0.0, 1.0, 2.0, 0.5, 0.6, 3.0, 4.0, 1.5, 1.6]]
    ds = load_salsa(_write_salsa(tmp_path, geo, ["0.0,"]))
    assert ds.frames[0].truth == GroupSet()


def test_load_salsa_errors(tmp_path):
    with pytest.raises(DatasetFormatError, match="missing expected file"):
        load_salsa(tmp_path)

    geo = [[0.0, 1.0, 2.0, 0.5, 0.6, 3.0, 4.0, 1.5, 1.6]]
    _write_salsa(tmp_path, geo, ["0.0,", "3.0,"])
    with pytest.raises(DatasetFormatError, match="row count mismatch"):
        load_salsa(tmp_path)

    _write_salsa(tmp_path, [[0.0, 1.0, 2.0, 0.5]], ["0.0,"])
    with pytest.raises(DatasetFormatError, match="4\\*N columns"):
        load_salsa(tmp_path)

    _write_salsa(tmp_path, geo, ["7.5,"])
    with pytest.raises(DatasetFormatError, match="does not match geometry timestamp"):
        load_salsa(tmp_path)

    two_rows = [
        [0.0, 1.0, 2.0, 0.5, 0.6, 3.0, 4.0, 1.5, 1.6],
        [3.0, 1.0, 2.0, 0.5, 0.6, 3.0, 4.0, 1.5, 1.6, 5.0, 6.0, 2.5, 2.6],
    ]
    _write_salsa(tmp_path, two_rows, ["0.0,", "3.0,"])
    with pytest.raises(DatasetFormatError, match="agent count changed"):
        load_salsa(tmp_path)

    _write_salsa(tmp_path, geo, ['0.0,"1 x"'])
    with pytest.raises(DatasetFormatError, match="bad agent id"):
        load_salsa(tmp_path)


def _write_babble(tmp_path, geo_text, ann_text):
    (tmp_path / "geometry.csv").write_text(geo_text, encoding="utf-8")
    (tmp_path / "annotations.csv").write_text(ann_text, encoding="utf-8")
    return tmp_path


def test_load_babble_happy_path(tmp_path):
    geo = (
        "frame,time,agent,x,y,body_theta\n"
        "0,0.0,1,0.0,0.0,0.1\n"
        "0,0.0,2,1.0,0.0,3.2\n"
        "0,0.0,3,2.0,1.0,-1.0\n"
        "0,0.0,4,5.0,5.0,0.0\n"
        "0,0.0,5,6.0,5.0,0.5\n"
        "1,0.5,1,0.0,0.1,0.1\n"
        "1,0.5,2,1.0,0.1,3.2\n"
    )
    ann = 'frame,groups\n0,"{2,3,5},{1,4}"\n1,\n'
    ds = load_babble(_write_babble(tmp_path, geo, ann))
    assert len(ds) == 2
    f0, f1 = ds.frames
    assert f0.truth.as_sorted_lists() == [[1, 4], [2, 3, 5]]
    assert f1.truth == GroupSet()
    assert f0.timestamp == 0.0 and f1.timestamp == 0.5
    assert math.isclose(f0.agents[2].body_theta, TWO_PI - 1.0)
    assert [a.agent_id for a in f1.agents] == [1, 2]


def test_load_babble_optional_head_column(tmp_path):
    geo = (
        "frame,time,agent,x,y,body_theta,head_theta\n"
        "0,0.0,1,0.0,0.0,0.1,0.2\n"
        "0,0.0,2,1.0,0.0,3.2,0.3\n"
    )
    ds = load_babble(_write_babble(tmp_path, geo, 'frame,groups\n0,"{1,2}"\n'))
    assert ds.frames[0].agents[0].head_theta == 0.2


def test_load_babble_errors(tmp_path):
    with pytest.raises(DatasetFormatError, match="missing expected file"):
        load_babble(tmp_path)

    bad_header = "when,who,x\n"
    _write_babble(tmp_path, bad_header, "frame,groups\n")
    with pytest.raises(DatasetFormatError, match="expected header"):
        load_babble(tmp_path)

    geo = "frame,time,agent,x,y,body_theta\n0,0.0,1,0,0,0\n0,0.0,2,1,0,0\n"
    _write_babble(tmp_path, geo, "frame,groups\n0,\n5,\n")
    with pytest.raises(DatasetFormatError, match="do not align"):
        load_babble(tmp_path)

    conflicting = "frame,time,agent,x,y,body_theta\n0,0.0,1,0,0,0\n0,0.9,2,1,0,0\n"
    _write_babble(tmp_path, conflicting, "frame,groups\n0,\n")
    with pytest.raises(DatasetFormatError, match="conflicting times"):
        load_babble(tmp_path)

    _write_babble(tmp_path, geo, "frame,groups\n0,\n0,\n")
    with pytest.raises(DatasetFormatError, match="duplicate annotation"):
        load_babble(tmp_path)


def test_split_frames():
    frames = tuple(
        Frame(frame_id=i, agents=(AgentPose.make(1, 0, 0, 0),)) for i in range(10)
    )
    train, test = split_frames(frames, 0.6)
    assert [f.frame_id for f in train] == [0, 1, 2, 3, 4, 5]
    assert [f.frame_id for f in test] == [6, 7, 8, 9]
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            split_frames(frames, bad)


# A JSON integer of 401 digits: valid JSON, but too large for a float.
HUGE = int("9" * 401)


def _one_frame_doc():
    agent = {"id": 1, "x": 0.5, "y": 0.25, "body_theta": 1.0, "head_theta": 2.0}
    return {"schema_version": 1, "frames": [{"frame_id": 6, "timestamp": 1.0, "agents": [agent]}]}


@pytest.mark.parametrize("field", ["x", "y", "body_theta", "head_theta"])
def test_load_canonical_rejects_an_agent_number_too_large_for_a_float(tmp_path, field):
    doc = _one_frame_doc()
    doc["frames"][0]["agents"][0][field] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="frame entry 0, agent entry 0: .*too large"):
        load_canonical(path)


def test_load_canonical_rejects_a_timestamp_too_large_for_a_float(tmp_path):
    doc = _one_frame_doc()
    doc["frames"][0]["timestamp"] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="frame entry 0: timestamp: .*too large"):
        load_canonical(path)
