"""Synthetic corpus generation: determinism, construction, feasibility."""

import dataclasses
import hashlib
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest

from fformation.characterization import symmetry, tightness
from fformation.core import TWO_PI, AgentPose, Frame, GroupSet, validate_frame
from fformation.datasets import CanonicalDataset, DatasetFormatError, save_canonical
from fformation.features import effort_angle, pairwise_deconstruct
from fformation.synthetic import (
    PlacementError,
    SynthConfig,
    _size_table,
    generate_synthetic,
    load_synth_config,
    save_synth_config,
)


# The generator as first written, one numpy call a draw: the reference the
# generator's fewer, cheaper draws must reproduce value for value.
def reference_place_centers(rng, config, radii):
    w, h = config.area
    centers = []
    placed_r = []
    for r in radii:
        margin = r + 4.0 * config.radial_jitter + 0.1
        if 2 * margin >= w or 2 * margin >= h:
            raise PlacementError(
                f"area {config.area} too small for a group of radius {r:.2f}"
            )
        for _ in range(config.max_retries):
            cx = rng.uniform(margin, w - margin)
            cy = rng.uniform(margin, h - margin)
            ok = all(
                math.hypot(cx - px, cy - py) >= r + pr + config.group_clearance
                for (px, py), pr in zip(centers, placed_r)
            )
            if ok:
                centers.append((cx, cy))
                placed_r.append(r)
                break
        else:
            raise PlacementError(
                f"could not place {len(radii)} groups in area {config.area} "
                f"after {config.max_retries} retries"
            )
    return centers


def reference_make_frame(rng, config, frame_id):
    sizes = sorted(config.group_size_distribution)
    weights = np.array([config.group_size_distribution[s] for s in sizes], dtype=np.float64)
    weights /= weights.sum()
    lo, hi = config.groups_per_frame
    n_groups = int(rng.integers(lo, hi + 1))
    group_sizes = [int(rng.choice(sizes, p=weights)) for _ in range(n_groups)]
    radii = [config.tightness_mean_per_size[s] for s in group_sizes]
    centers = reference_place_centers(rng, config, radii)

    agents = []
    groups = []
    next_id = 1
    for size, r, (cx, cy) in zip(group_sizes, radii, centers):
        members = []
        offset = rng.uniform(0.0, 2.0 * math.pi)
        for i in range(size):
            ang = offset + 2.0 * math.pi * i / size
            ang += math.radians(rng.normal(0.0, config.angular_jitter)) if config.angular_jitter else 0.0
            rad = r + (rng.normal(0.0, config.radial_jitter) if config.radial_jitter else 0.0)
            rad = max(rad, 0.05)
            x = cx + rad * math.cos(ang)
            y = cy + rad * math.sin(ang)
            heading = math.atan2(cy - y, cx - x)
            if config.heading_noise:
                heading += math.radians(rng.normal(0.0, config.heading_noise))
            agents.append(AgentPose.make(next_id, x, y, heading))
            members.append(next_id)
            next_id += 1
        groups.append(members)

    w, h = config.area
    for _ in range(config.n_distractors):
        for _ in range(config.max_retries):
            x = rng.uniform(0.0, w)
            y = rng.uniform(0.0, h)
            ok = all(
                math.hypot(x - cx, y - cy) >= config.distractor_clearance
                for cx, cy in centers
            )
            if ok:
                break
        else:
            raise PlacementError(
                f"could not place distractor in area {config.area} "
                f"after {config.max_retries} retries"
            )
        agents.append(AgentPose.make(next_id, x, y, rng.uniform(0.0, 2.0 * math.pi)))
        next_id += 1

    return Frame(
        frame_id=frame_id,
        agents=tuple(agents),
        timestamp=float(frame_id),
        truth=GroupSet.from_iterable(groups),
    )


def reference_frames(config):
    rng = np.random.default_rng(config.seed)
    return [reference_make_frame(rng, config, i) for i in range(config.n_frames)]


CROWD = dict(groups_per_frame=(45, 45), n_distractors=50, area=(60.0, 60.0))

ORACLE_CONFIGS = [
    *(pytest.param(SynthConfig(n_frames=60, seed=seed), id=f"default-seed{seed}") for seed in range(11)),
    *(pytest.param(SynthConfig(n_frames=60, seed=3, **{name: 0.0}), id=f"no-{name}")
      for name in ("radial_jitter", "angular_jitter", "heading_noise")),
    pytest.param(SynthConfig(n_frames=60, seed=4, radial_jitter=0.0, angular_jitter=0.0, heading_noise=0.0),
                 id="no-jitter"),
    pytest.param(SynthConfig(n_frames=60, seed=5, groups_per_frame=(0, 0)), id="no-groups"),
    pytest.param(SynthConfig(n_frames=60, seed=6, groups_per_frame=(0, 3)), id="zero-to-three-groups"),
    pytest.param(SynthConfig(n_frames=60, seed=7, group_size_distribution={5: 2.5}), id="one-size"),
    pytest.param(SynthConfig(n_frames=4, seed=2, **CROWD), id="crowd"),
]


@pytest.mark.parametrize("config", ORACLE_CONFIGS)
def test_generator_reproduces_the_reference_draw_for_draw(config):
    assert generate_synthetic(config) == CanonicalDataset.from_frames(reference_frames(config))


@pytest.mark.parametrize(
    "config, message",
    [
        # Size 2 fits a 2.3 m square, size 7 does not: the first frame that
        # draws a 7 fails.
        (SynthConfig(n_frames=50, seed=1, area=(2.3, 2.3), n_distractors=0, groups_per_frame=(1, 1),
                     group_size_distribution={2: 0.9, 7: 0.1}), "too small for a group of radius 0.95"),
        (SynthConfig(n_frames=50, seed=2, area=(9.0, 9.0), max_retries=5, n_distractors=0),
         "could not place 2 groups"),
        (SynthConfig(n_frames=50, seed=3, area=(10.0, 10.0), n_distractors=6, groups_per_frame=(1, 1),
                     max_retries=4, distractor_clearance=3.0), "could not place distractor"),
    ],
)
def test_a_tight_area_fails_at_the_reference_frame_with_its_message(config, message):
    rng = np.random.default_rng(config.seed)
    frames = []
    with pytest.raises(PlacementError, match=message) as expected:
        for i in range(config.n_frames):
            frames.append(reference_make_frame(rng, config, i))
    failing = len(frames)
    assert failing > 0  # a later frame fails, so the streams stayed in step until then
    assert generate_synthetic(dataclasses.replace(config, n_frames=failing)) == \
        CanonicalDataset.from_frames(frames)
    with pytest.raises(PlacementError) as caught:
        generate_synthetic(dataclasses.replace(config, n_frames=failing + 1))
    assert str(caught.value) == str(expected.value)


def test_the_draws_equal_the_generator_calls_they_stand_for():
    # The generator draws each value with a cheaper numpy call than the one
    # its distribution names. Should numpy compute one of them differently,
    # or consume the stream differently, this fails.
    config = SynthConfig()
    margins = [r + 4.0 * config.radial_jitter + 0.1 for r in config.tightness_mean_per_size.values()]
    bounds = [(m, 12.0 - m) for m in margins] + [(0.0, 12.0), (0.0, 60.0), (0.0, 2.0 * math.pi), (-3.5, 1e-3)]
    scales = [config.radial_jitter, config.angular_jitter, config.heading_noise, 1e-9, 3]
    tables = [config.group_size_distribution, {5: 2.5}, {2: 1e-300, 3: 3e-300, 9: 1e300}, {2: 1, 4: 3, 7: 5}]
    for seed in range(200):
        numpy_rng, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo, hi in bounds:
            assert numpy_rng.uniform(lo, hi) == lo + (hi - lo) * ours.random()
        # From 0, the draws drop the zero bound; an area may hold integers.
        x, y, heading = numpy_rng.uniform(0.0, 12), numpy_rng.uniform(0.0, 7.5), numpy_rng.uniform(0.0, 2.0 * math.pi)
        ux, uy = ours.random(2).tolist()
        assert (x, y, heading) == (12 * ux, 7.5 * uy, TWO_PI * ours.random())
        expected = [numpy_rng.normal(0.0, s) for s in scales * 3]
        assert expected == [0.0 + s * z for s, z in zip(scales * 3, ours.standard_normal(3 * len(scales)))]
        for table in tables:
            sizes = sorted(table)
            weights = np.array([table[s] for s in sizes], dtype=np.float64)
            weights /= weights.sum()
            ours_sizes, cdf = _size_table(table)
            assert ours_sizes == sizes
            for _ in range(5):
                assert int(numpy_rng.choice(sizes, p=weights)) == sizes[bisect_right(cdf, ours.random())]
        # The two streams are still in step.
        assert numpy_rng.integers(0, 2**63) == ours.integers(0, 2**63)


# sha256 of save_canonical's bytes for two corpora, as the generator wrote
# them with one numpy call a draw (numpy 2.4). The default is also what
# `fformation synth` writes without a config.
GOLDEN_DIGESTS = [
    (SynthConfig(), "bde573e61fc3fcb4f354931f6bfdd174efc7f2e7002145b67cdcc5b03623374f"),
    (SynthConfig(n_frames=3, seed=2, **CROWD), "77319be4790e4426c4b68e5648615703f744d1ed3f68ca9cbfee48ba5f769612"),
]


@pytest.mark.parametrize("config, digest", GOLDEN_DIGESTS, ids=["default", "crowd"])
def test_saved_corpus_has_its_golden_digest(tmp_path, config, digest):
    path = tmp_path / "corpus.json"
    save_canonical(generate_synthetic(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


def test_size_weights_whose_sum_overflows_are_rejected():
    # Each weight is finite, but the sum the generator divides by is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^group_size_distribution must have weights whose sum is finite"):
            SynthConfig(group_size_distribution={2: 1e308, 3: 1e308})
        SynthConfig(group_size_distribution={2: 1e308, 3: 7e307})


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
