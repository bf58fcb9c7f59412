"""Canonical serialization round-trips and the pinned CSV loaders."""

import dataclasses
import json
import math
import re
import time

import numpy as np
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
from fformation.synthetic import SynthConfig, generate_synthetic

from csv_exports import babble_tables, export_frames, salsa_tables, write_tables

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


# ------------------------------------------------------------ fault injection

# Keys of the canonical layout whose value must be a number, that may be
# absent, and whose value must be an integer.
NUMBER_KEYS = {"x", "y", "body_theta", "head_theta", "timestamp"}
OPTIONAL_KEYS = {"head_theta", "timestamp", "groups"}
INTEGER_KEYS = {"frame_id", "id"}


def _fault_dataset():
    synth = generate_synthetic(SynthConfig(n_frames=3, seed=5)).frames
    frames = [dataclasses.replace(f, frame_id=10 + k) for k, f in enumerate(synth)]
    return CanonicalDataset.from_frames(frames + list(_dataset().frames))


def _slots(value, path=()):
    """Every (path, key) of the document below ``value``, members of lists
    included; the key of a list member is its index."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path, key
        if isinstance(item, (dict, list)):
            yield from _slots(item, path + (key,))


def _without(dataset, path, key):
    """The dataset as it loads when ``key`` at ``path`` is absent or null:
    a missing timestamp, head_theta or groups."""
    frames = list(dataset.frames)
    f = frames[path[1]]
    if key == "timestamp":
        frames[path[1]] = dataclasses.replace(f, timestamp=None)
    elif key == "groups":
        frames[path[1]] = dataclasses.replace(f, truth=None)
    else:
        agents = list(f.agents)
        agents[path[3]] = dataclasses.replace(agents[path[3]], head_theta=None)
        frames[path[1]] = dataclasses.replace(f, agents=tuple(agents))
    return CanonicalDataset.from_frames(frames)


def _swap_expectation(dataset, path, key, value):
    """What loading must do once ``value`` replaces the item at ``path`` +
    ``key``: "raise", load equal to a dataset, or "valid" (raise, or load a
    dataset that saves and loads again unchanged)."""
    member = len(path) == 4 and path[2] == "groups"
    if key in NUMBER_KEYS:
        if value is None and key in OPTIONAL_KEYS:
            return _without(dataset, path, key)
        return "valid" if value == 1.5 else "raise"
    if key in INTEGER_KEYS or member:
        # A huge integer is a valid id, though a group member must name an
        # agent of the frame.
        return "valid" if type(value) is int else "raise"
    if key == "schema_version":
        return dataset if value == 1 else "raise"
    return "raise"  # an object or list replaced by another type


def _mutations(text, dataset, rng):
    """(what, file text, expectation) triples: flipped bytes and digits,
    truncations, deleted keys, values swapped for other types, booleans,
    huge integers and non-finite numbers, and the same document with other
    whitespace."""
    doc = json.loads(text)
    slots = list(_slots(doc))
    cases = []
    raw = text.encode("utf-8")
    for _ in range(40):
        at = int(rng.integers(len(raw)))
        flipped = bytearray(raw)
        flipped[at] = (flipped[at] + int(rng.integers(1, 256))) % 256
        cases.append((("flip", at), bytes(flipped), "valid"))
    digits = [k for k, c in enumerate(raw) if chr(c).isdigit()]
    for at in rng.choice(digits, size=20, replace=False).tolist():
        changed = bytearray(raw)
        changed[at] = ord("0") + (changed[at] - ord("0") + int(rng.integers(1, 10))) % 10
        cases.append((("digit", at), bytes(changed), "valid"))
    for _ in range(10):
        cut = int(rng.integers(len(raw)))
        cases.append((("truncate", cut), raw[:cut], "raise"))
    swaps = ("0.5", [], {}, None, True, False, 1.5, HUGE, math.nan, math.inf, -math.inf)
    for k in rng.choice(len(slots), size=60, replace=False):
        path, key = slots[int(k)]
        mutated = json.loads(text)
        target = mutated
        for step in path:
            target = target[step]
        if isinstance(target, dict):
            del target[key]
            expect = _without(dataset, path, key) if key in OPTIONAL_KEYS else "raise"
            cases.append((("delete", path, key), json.dumps(mutated).encode(), expect))
            mutated = json.loads(text)
            target = mutated
            for step in path:
                target = target[step]
        value = swaps[int(rng.integers(len(swaps)))]
        if isinstance(target[key], list) and value == []:
            expect = "valid"  # no frames, agents, groups or members
        elif isinstance(target, list) and path[-1] in ("agents", "frames"):
            expect = "raise"  # an agent or a frame that is not an object
        elif isinstance(target, list) and path[-1] == "groups":
            expect = "raise"  # a group that is not a list
        else:
            expect = _swap_expectation(dataset, path, key, value)
        if type(value) is float and not math.isfinite(value) and expect == "valid":
            expect = "raise"
        target[key] = value
        cases.append((("swap", path, key, value), json.dumps(mutated).encode(), expect))
    cases.append((("indent",), json.dumps(doc, indent=2).encode(), dataset))
    spaced = text.replace(", ", " ,\n\t").replace(": ", " :  ")
    cases.append((("whitespace",), spaced.encode(), dataset))
    return cases


def test_mutated_canonical_files_are_rejected_or_load_as_they_say(tmp_path):
    # A mutated file must raise DatasetFormatError, or load: as the original
    # did where the change keeps its meaning (whitespace, schema_version
    # written as true), as the original without the field where an optional
    # field is dropped, and, where a flipped byte leaves a valid file, as a
    # dataset that saves and loads again unchanged (no NaN slips through).
    started = time.perf_counter()
    dataset = _fault_dataset()
    path = tmp_path / "data.json"
    save_canonical(dataset, path)
    text = path.read_text(encoding="utf-8")
    rng = np.random.default_rng(41)
    outcomes = []
    for round_ in range(2):
        for what, data, expect in _mutations(text, dataset, rng):
            path.write_bytes(data)
            try:
                loaded = load_canonical(path)
            except DatasetFormatError:
                loaded = None
            where = (round_, what, expect if isinstance(expect, str) else "dataset")
            if isinstance(expect, CanonicalDataset):
                assert loaded == expect, where
            elif expect == "raise":
                assert loaded is None, where
            elif loaded is not None:
                again = tmp_path / "again.json"
                save_canonical(loaded, again)
                assert load_canonical(again) == loaded, where
            outcomes.append("rejected" if loaded is None else
                            "same" if loaded == dataset else "different")
    assert set(outcomes) == {"rejected", "same", "different"}
    assert time.perf_counter() - started < 10.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: f.update(frame_id=True), "frame entry 0: frame_id must be an integer"),
        (lambda f: f["agents"][0].update(id=False), "agent entry 0: id must be an integer"),
        (lambda f: f.update(groups=[[True, 1]]), "each group must be a list of integer agent ids"),
        (lambda f: f.update(timestamp=math.nan), "frame entry 0: timestamp must be finite"),
        (lambda f: f.update(timestamp=-math.inf), "frame entry 0: timestamp must be finite"),
    ],
)
def test_load_canonical_rejects_boolean_ids_and_non_finite_timestamps(tmp_path, edit, message):
    doc = _one_frame_doc()
    doc["frames"][0]["agents"].append({"id": 2, "x": 1.0, "y": 0.0, "body_theta": 0.0})
    edit(doc["frames"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=message):
        load_canonical(path)


def test_load_canonical_names_the_line_and_column_of_broken_json(tmp_path):
    path = tmp_path / "data.json"
    save_canonical(_dataset(), path)
    text = path.read_text(encoding="utf-8")
    assert "\n" not in text
    at = text.index('"agents"')
    path.write_text(text[:at] + text[at + 1 :], encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"invalid JSON at line 1 column {at + 1}:"):
        load_canonical(path)
    path.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
    with pytest.raises(DatasetFormatError, match=f"not UTF-8 text at byte {at}:"):
        load_canonical(path)


# ------------------------------------------------ CSV exports, fault injection

LAYOUTS = {"salsa": (load_salsa, salsa_tables), "babble": (load_babble, babble_tables)}
GROUP_FILES = {"fformationGT.csv", "annotations.csv"}  # their column 1 holds the groups

# Cell values that no number, id or group cell accepts: text, NaN and
# infinities, a float too large, Python's digit separator, a digit that is
# not ASCII, and hexadecimal. (An empty group cell means no groups.)
BAD_CELLS = ("", "x", "nan", "inf", "-inf", "1e999", "1_0", "٣", "0x1f")


def _cell_cases(layout, tables, frames):
    """(where, mutated tables, expectation) for every cell of every file. A
    bad value raises ("raise"). The cell with spaces around, or with a plus
    sign before a number or an id, loads the frames as they were; an empty
    group cell loads its frame with no groups."""
    for name, rows in tables.items():
        for r, row in enumerate(rows):
            header = layout == "babble" and r == 0
            for c, cell in enumerate(row):
                group_cell = name in GROUP_FILES and c == 1 and not header
                values = [(v, "raise") for v in BAD_CELLS if v != cell] + [(f" {cell} ", frames)]
                if not (header or group_cell or cell.startswith("-")):
                    values.append((f"+{cell}", frames))
                for value, expect in values:
                    if group_cell and value == "":
                        k = r - (layout == "babble")  # below the header
                        cleared = dataclasses.replace(frames[k], truth=GroupSet())
                        expect = frames[:k] + (cleared,) + frames[k + 1 :]
                    mutated = {n: [list(x) for x in rs] for n, rs in tables.items()}
                    mutated[name][r][c] = value
                    yield (name, r, c, value), mutated, expect


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_csv_export_loads_as_the_frames_it_holds(tmp_path, layout):
    frames = export_frames(5, seed=3)
    load, tables = LAYOUTS[layout]
    assert load(write_tables(tmp_path, tables(frames))).frames == frames


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_mutated_csv_fields_are_rejected_or_load_as_they_say(tmp_path, layout):
    frames = export_frames(2, seed=4)
    load, tables = LAYOUTS[layout]
    outcomes = []
    for where, mutated, expect in _cell_cases(layout, tables(frames), frames):
        write_tables(tmp_path, mutated)
        try:
            loaded = load(tmp_path).frames
        except DatasetFormatError:
            loaded = "raise"
        assert loaded == expect, where
        outcomes.append(expect is frames)
    assert set(outcomes) == {True, False}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_csv_exports_with_a_changed_byte_are_rejected_or_load_a_valid_dataset(tmp_path, layout):
    frames = export_frames(2, seed=4)
    load, tables = LAYOUTS[layout]
    write_tables(tmp_path, tables(frames))
    rng = np.random.default_rng(43)
    outcomes = set()
    for name in tables(frames):
        path = tmp_path / name
        raw = path.read_bytes()
        for at in rng.choice(len(raw), size=min(40, len(raw)), replace=False).tolist():
            changed = bytearray(raw)
            changed[at] = (raw[at] + int(rng.integers(1, 256))) % 256
            path.write_bytes(bytes(changed))
            try:
                loaded = load(tmp_path)
            except DatasetFormatError:
                outcomes.add("rejected")
                continue
            # No NaN or infinity slipped through: the dataset saves and loads again.
            save_canonical(loaded, tmp_path / "again.json")
            assert load_canonical(tmp_path / "again.json") == loaded, (name, at)
            outcomes.add("same" if loaded.frames == frames else "different")
        path.write_bytes(raw)
    assert {"rejected", "different"} <= outcomes


@pytest.mark.parametrize(
    "layout, name, row, column, value, message",
    [
        ("salsa", "geometryGT.csv", 0, 0, "nan", "expected a finite number, got 'nan'"),
        ("salsa", "fformationGT.csv", 1, 0, "inf", "expected a finite number, got 'inf'"),
        ("babble", "geometry.csv", 2, 1, "-inf", "expected a finite number, got '-inf'"),
        ("babble", "geometry.csv", 1, 0, "1_0", "expected an integer, got '1_0'"),
        ("babble", "geometry.csv", 3, 2, "٣", "expected an integer, got '٣'"),
        ("babble", "annotations.csv", 2, 0, "1_0", "expected an integer, got '1_0'"),
        ("salsa", "fformationGT.csv", 0, 1, "1 ٣;4 5 6", "bad agent id"),
        ("babble", "annotations.csv", 1, 1, "{1_0,2},{4,5,6}", "bad agent id"),
    ],
)
def test_csv_probes_name_the_file_and_row(tmp_path, layout, name, row, column, value, message):
    load, tables = LAYOUTS[layout]
    mutated = tables(export_frames(2))
    mutated[name][row][column] = value
    write_tables(tmp_path, mutated)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{tmp_path / name}, row {row + 1}: {message}")):
        load(tmp_path)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_csv_bytes_that_are_not_utf8_name_the_file_and_byte(tmp_path, layout):
    load, tables = LAYOUTS[layout]
    files = tables(export_frames(2))
    for name in files:
        path = write_tables(tmp_path, files) / name
        raw = path.read_bytes()
        at = len(raw) // 2
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: not UTF-8 text at byte {at}:")):
            load(tmp_path)


@pytest.mark.parametrize(
    "layout, name",
    [("salsa", "geometryGT.csv"), ("salsa", "fformationGT.csv"),
     ("babble", "geometry.csv"), ("babble", "annotations.csv")],
)
def test_csv_errors_name_the_physical_line_after_blank_lines(tmp_path, layout, name):
    load, tables = LAYOUTS[layout]
    mutated = tables(export_frames(3))
    mutated[name][-1][0] = "x"  # a timestamp or a frame id
    path = write_tables(tmp_path, mutated) / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:1] + ["\n", "\n"] + lines[1:]), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}, row {len(lines) + 2}: ")):
        load(tmp_path)
