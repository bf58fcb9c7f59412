"""Synthetic corpus generation: determinism, construction, feasibility."""

import dataclasses
import math

import pytest

from fformation.characterization import symmetry, tightness
from fformation.core import validate_frame
from fformation.datasets import DatasetFormatError, save_canonical
from fformation.features import effort_angle, pairwise_deconstruct
from fformation.synthetic import (
    PlacementError,
    SynthConfig,
    generate_synthetic,
    load_synth_config,
    save_synth_config,
)


def test_same_seed_is_bit_identical(tmp_path):
    c = SynthConfig(n_frames=40, seed=123)
    d1 = generate_synthetic(c)
    d2 = generate_synthetic(c)
    assert d1 == d2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_canonical(d1, p1)
    save_canonical(d2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert generate_synthetic(SynthConfig(n_frames=40, seed=124)) != d1


def test_zero_jitter_group_is_a_perfect_circle():
    config = SynthConfig(
        n_frames=5,
        group_size_distribution={4: 1.0},
        radial_jitter=0.0,
        angular_jitter=0.0,
        heading_noise=0.0,
        n_distractors=0,
        groups_per_frame=(1, 1),
        seed=9,
    )
    ds = generate_synthetic(config)
    for frame in ds.frames:
        assert len(frame.truth) == 1
        members = [frame.pose_of(a) for a in sorted(frame.truth.groups[0])]
        assert len(members) == 4
        assert tightness(members) == pytest.approx(0.83, abs=1e-9)
        assert symmetry(members) == pytest.approx(0.0, abs=1e-7)
        # members face the center exactly: opposite members face each other
        assert effort_angle(members[0], members[2]) == pytest.approx(0.0, abs=1e-9)


def test_frames_validate_and_ids_are_sequential():
    ds = generate_synthetic(SynthConfig(n_frames=30, seed=5))
    for frame in ds.frames:
        validate_frame(frame)
        ids = frame.agent_ids()
        assert ids == list(range(1, len(ids) + 1))
        assert frame.truth is not None
        for g in frame.truth.groups:
            assert len(g) >= 2


def test_distractors_keep_clearance_from_group_centers():
    config = SynthConfig(
        n_frames=20,
        radial_jitter=0.0,
        angular_jitter=0.0,
        heading_noise=0.0,
        seed=6,
    )
    ds = generate_synthetic(config)
    for frame in ds.frames:
        grouped = frame.truth.member_ids()
        centers = []
        for g in frame.truth.groups:
            members = [frame.pose_of(a) for a in g]
            centers.append(
                (sum(m.x for m in members) / len(members), sum(m.y for m in members) / len(members))
            )
        for agent in frame.agents:
            if agent.agent_id in grouped:
                continue
            for cx, cy in centers:
                assert math.hypot(agent.x - cx, agent.y - cy) >= config.distractor_clearance - 1e-9


def test_default_corpus_base_rate_in_bounds():
    ds = generate_synthetic(SynthConfig(n_frames=1000, seed=7))
    positives = total = 0
    for frame in ds.frames:
        for s in pairwise_deconstruct(frame):
            positives += s.label
            total += 1
    rate = positives / total
    assert 0.05 <= rate <= 0.5, rate


def test_infeasible_area_raises_placement_error():
    with pytest.raises(PlacementError, match="too small"):
        generate_synthetic(
            SynthConfig(n_frames=1, area=(2.0, 2.0), group_size_distribution={7: 1.0})
        )
    with pytest.raises(PlacementError):
        generate_synthetic(
            SynthConfig(
                n_frames=1,
                area=(6.0, 6.0),
                groups_per_frame=(6, 6),
                group_size_distribution={5: 1.0},
            )
        )


def test_config_validation():
    with pytest.raises(ValueError, match="n_frames"):
        SynthConfig(n_frames=0)
    with pytest.raises(ValueError, match="size 1"):
        SynthConfig(group_size_distribution={1: 1.0})
    with pytest.raises(ValueError, match="weight"):
        SynthConfig(group_size_distribution={3: 0.0})
    with pytest.raises(ValueError, match="no tightness mean"):
        SynthConfig(group_size_distribution={9: 1.0})
    with pytest.raises(ValueError, match="radial_jitter"):
        SynthConfig(radial_jitter=-0.1)
    with pytest.raises(ValueError, match="area"):
        SynthConfig(area=(0.0, 5.0))
    with pytest.raises(ValueError, match="groups_per_frame"):
        SynthConfig(groups_per_frame=(3, 1))
    with pytest.raises(ValueError, match="max_retries"):
        SynthConfig(max_retries=0)


def test_config_json_round_trip(tmp_path):
    config = SynthConfig(n_frames=17, seed=3, n_distractors=5, angular_jitter=2.5)
    path = tmp_path / "config.json"
    save_synth_config(config, path)
    assert load_synth_config(path) == config


def test_equal_configs_hash_alike():
    config = SynthConfig()
    copy = dataclasses.replace(
        config, group_size_distribution=dict(reversed(config.group_size_distribution.items()))
    )
    assert copy == config and copy.group_size_distribution is not config.group_size_distribution
    assert hash(copy) == hash(config)
    seen = {config: "default"}
    assert seen[copy] == "default"
    assert dataclasses.replace(config, seed=5) not in seen
    assert len({config, copy, dataclasses.replace(copy), SynthConfig(n_frames=7)}) == 2


def test_config_unknown_field_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_frames": 5, "wind_speed": 3}', encoding="utf-8")
    with pytest.raises(Exception, match="wind_speed"):
        load_synth_config(path)


def test_config_number_too_large_for_a_float_is_a_format_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"tightness_mean_per_size": {"2": 1%s}}' % ("0" * 400), encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="too large"):
        load_synth_config(path)
