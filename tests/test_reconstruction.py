"""Greedy reconstruction against independent oracles and fuzz properties."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fformation import core as core_mod
from fformation import features as features_mod
from fformation.core import AgentPose, Frame, GroupSet, RelationMatrix, ValidationError
from fformation.classifiers import build_relation_matrix, predict_batch, train
from fformation.features import distance, effort_angle, pairwise_deconstruct
from fformation.reconstruction import belief_set, detect, greedy_reconstruct
from fformation.synthetic import SynthConfig, generate_synthetic


def matrix(ids, rows):
    return RelationMatrix(ids=tuple(ids), m=np.array(rows, dtype=np.uint8))


def oracle_greedy(ids, m, mode="intersection"):
    """Direct-from-contract reimplementation; beliefs recomputed per round."""
    n = len(ids)
    remaining = list(range(n))
    out = []
    while len(remaining) >= 2:
        best = None
        for ai in range(len(remaining)):
            for bi in range(ai + 1, len(remaining)):
                i, j = remaining[ai], remaining[bi]
                if m[i][j] != 1:
                    continue
                b_i = {k for k in remaining if m[i][k] == 1}
                b_j = {k for k in remaining if m[j][k] == 1}
                size = len(b_i & b_j)
                if best is None or size > best[0]:
                    best = (size, i, j, b_i, b_j)
        if best is None:
            break
        _, i, j, b_i, b_j = best
        emitted = (b_i | b_j) if mode == "union" else ((b_i & b_j) | {i, j})
        out.append(frozenset(ids[k] for k in emitted))
        remaining = [k for k in remaining if k not in emitted]
    return out


def oracle_cliques(ids, m):
    """Connected components of the positive graph; must all be cliques."""
    n = len(ids)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for k in range(n):
                if k != cur and m[cur][k] == 1 and k not in comp:
                    comp.add(k)
                    queue.append(k)
        seen |= comp
        for a in comp:
            for b in comp:
                assert m[a][b] == 1, "input graph is not a union of cliques"
        if len(comp) >= 2:
            comps.append(frozenset(ids[k] for k in comp))
    return comps


def random_symmetric(rng, n, p=0.5):
    m = np.eye(n, dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = 1 if rng.random() < p else 0
    return m


def test_belief_set_examples():
    ident = matrix([10, 11, 12], np.eye(3, dtype=int))
    assert belief_set(ident, 0) == {10}
    ones = matrix([10, 11, 12], np.ones((3, 3), dtype=int))
    assert belief_set(ones, 1) == {10, 11, 12}
    single = matrix([10, 11, 12], [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert belief_set(single, 0) == {10, 11}
    with pytest.raises(IndexError):
        belief_set(ident, 3)
    with pytest.raises(IndexError):
        belief_set(ident, -1)


def test_greedy_belief_example_emits_expected_first_group():
    # Rows encode beliefs B1={1,2,3}, B2={1,2,3,4}, B3={1,2,3}, B4={2,4}.
    rm = matrix(
        [1, 2, 3, 4],
        [
            [1, 1, 1, 0],
            [1, 1, 1, 1],
            [1, 1, 1, 0],
            [0, 1, 0, 1],
        ],
    )
    gs = greedy_reconstruct(rm)
    assert gs.groups[0] == frozenset({1, 2, 3})
    assert gs.as_sorted_lists() == [[1, 2, 3]]


def test_greedy_trivial_matrices():
    ones = matrix([1, 2, 3, 4], np.ones((4, 4), dtype=int))
    assert greedy_reconstruct(ones).as_sorted_lists() == [[1, 2, 3, 4]]
    for n in range(0, 6):
        ident = matrix(range(1, n + 1), np.eye(n, dtype=int))
        assert len(greedy_reconstruct(ident)) == 0


def test_greedy_union_mode():
    rm = matrix(
        [1, 2, 3, 4],
        [
            [1, 1, 1, 0],
            [1, 1, 1, 1],
            [1, 1, 1, 0],
            [0, 1, 0, 1],
        ],
    )
    assert greedy_reconstruct(rm, mode="union").as_sorted_lists() == [[1, 2, 3, 4]]
    with pytest.raises(ValueError, match="unknown mode"):
        greedy_reconstruct(rm, mode="both")


def test_greedy_pair_only_evidence_emits_the_pair():
    # Positive entry with empty third-party agreement still groups the pair.
    rm = matrix([1, 2, 3], [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert greedy_reconstruct(rm).as_sorted_lists() == [[1, 2]]


def test_greedy_matches_oracle_exhaustively_small_n():
    for n in range(2, 6):
        ids = tuple(range(1, n + 1))
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            m = np.eye(n, dtype=np.uint8)
            for b, (i, j) in enumerate(pairs):
                if bits >> b & 1:
                    m[i, j] = m[j, i] = 1
            got = greedy_reconstruct(matrix(ids, m)).groups
            want = oracle_greedy(ids, m)
            assert list(got) == want, (n, bits)


def test_greedy_matches_oracle_random_n6_n7():
    rng = random.Random(21)
    for _ in range(2000):
        n = rng.choice([6, 7])
        ids = tuple(range(1, n + 1))
        m = random_symmetric(rng, n, p=rng.uniform(0.1, 0.9))
        got = greedy_reconstruct(matrix(ids, m)).groups
        want = oracle_greedy(ids, m)
        assert list(got) == want


def test_greedy_exact_on_disjoint_cliques():
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(2, 8)
        ids = tuple(range(1, n + 1))
        indices = list(range(n))
        rng.shuffle(indices)
        m = np.eye(n, dtype=np.uint8)
        pos = 0
        while pos < n:
            size = rng.randint(1, n - pos)
            block = indices[pos : pos + size]
            for a in block:
                for b in block:
                    m[a, b] = 1
            pos += size
        got = sorted(greedy_reconstruct(matrix(ids, m)).groups, key=sorted)
        want = sorted(oracle_cliques(ids, m), key=sorted)
        assert got == want


def test_greedy_fuzz_structural_invariants():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(0, 10)
        ids = tuple(range(101, 101 + n))
        m = random_symmetric(rng, n, p=rng.random())
        gs = greedy_reconstruct(matrix(ids, m))
        seen = set()
        for g in gs.groups:
            assert len(g) >= 2
            assert g <= set(ids)
            assert not (g & seen), "groups overlap"
            seen |= g
        assert len(gs) <= n // 2


def test_greedy_equivariant_under_relabeling_when_tie_free():
    rng = random.Random(24)
    checked = 0
    for _ in range(600):
        n = rng.randint(2, 7)
        ids = tuple(range(1, n + 1))
        m = random_symmetric(rng, n, p=rng.uniform(0.2, 0.8))

        # Track whether any greedy round had a tied best agreement size.
        tie = False
        remaining = list(range(n))
        while len(remaining) >= 2:
            scored = []
            for i, j in itertools.combinations(remaining, 2):
                if m[i][j] != 1:
                    continue
                b_i = {k for k in remaining if m[i][k] == 1}
                b_j = {k for k in remaining if m[j][k] == 1}
                scored.append((len(b_i & b_j), i, j, b_i & b_j))
            if not scored:
                break
            best_size = max(s[0] for s in scored)
            if sum(1 for s in scored if s[0] == best_size) > 1:
                tie = True
                break
            _, i, j, agree = max(scored)
            emitted = agree | {i, j}
            remaining = [k for k in remaining if k not in emitted]
        if tie:
            continue
        checked += 1
        perm = list(range(n))
        rng.shuffle(perm)
        pm = np.eye(n, dtype=np.uint8)
        for i in range(n):
            for j in range(n):
                pm[perm[i], perm[j]] = m[i][j]
        base = greedy_reconstruct(matrix(ids, m))
        relabeled = greedy_reconstruct(matrix(ids, pm))
        mapped = {frozenset(ids[perm[ids.index(a)]] for a in g) for g in base.groups}
        assert {frozenset(g) for g in relabeled.groups} == mapped
    assert checked >= 100  # the property must actually exercise many cases


def _trained_model():
    ds = generate_synthetic(SynthConfig(n_frames=60, seed=31))
    samples = []
    for f in ds.frames:
        samples.extend(pairwise_deconstruct(f))
    return train(samples, kind="knn", seed=0)


def test_detect_on_synthetic_scenes():
    model = _trained_model()
    facing = Frame(
        frame_id=0,
        agents=(
            AgentPose.make(1, 0.0, 0.0, 0.0),
            AgentPose.make(2, 1.0, 0.0, math.pi),
        ),
    )
    assert detect(model, facing).as_sorted_lists() == [[1, 2]]

    apart = Frame(
        frame_id=1,
        agents=(
            AgentPose.make(1, 0.0, 0.0, math.pi),
            AgentPose.make(2, 8.0, 0.0, 0.0),
        ),
    )
    assert len(detect(model, apart)) == 0

    solo = Frame(frame_id=2, agents=(AgentPose.make(1, 0.0, 0.0, 0.0),))
    assert len(detect(model, solo)) == 0


def test_detect_equals_composition():
    from fformation.classifiers import build_relation_matrix

    model = _trained_model()
    ds = generate_synthetic(SynthConfig(n_frames=5, seed=32))
    for f in ds.frames:
        direct = detect(model, f)
        composed = greedy_reconstruct(build_relation_matrix(model, f))
        assert direct.groups == composed.groups


def noisy_cliques(rng, n, n_groups, p_flip):
    """Disjoint cliques over n agents with a share p_flip of entries flipped."""
    member = rng.integers(0, n_groups, size=n)
    m = member[:, None] == member[None, :]
    flips = np.triu(rng.random((n, n)) < p_flip, 1)
    m = (m ^ (flips | flips.T)).astype(np.uint8)
    np.fill_diagonal(m, 1)
    return m


@pytest.mark.parametrize("mode", ["intersection", "union"])
def test_greedy_matches_oracle_beyond_one_machine_word(models, mode):
    # Belief rows of more than 64 agents are ints wider than a machine word.
    rng = np.random.default_rng(25)
    for n in (65, 71, 128, 200):
        for n_groups, p_flip in ((n // 3, 0.01), (n // 5, 0.03), (2, 0.0)):
            ids = tuple(range(1000, 1000 - 3 * n, -3))[::-1]  # ascending, not consecutive
            m = noisy_cliques(rng, n, n_groups, p_flip)
            got = greedy_reconstruct(matrix(ids, m), mode=mode).groups
            assert list(got) == oracle_greedy(ids, m.tolist(), mode), (n, n_groups, p_flip)
    # The rows that build_relation_matrix makes from the labels of a crowd.
    crowd = [f for f in mixed_frames() if len(f.agents) > 64]
    for kind, model in models.items():
        for rm in build_relation_matrix(model, crowd):
            got = greedy_reconstruct(rm, mode=mode).groups
            assert len(got) > 1 and list(got) == oracle_greedy(rm.ids, rm.m.tolist(), mode), kind


# ------------------------------------------------ detection of many frames


@pytest.fixture(scope="module")
def models():
    ds = generate_synthetic(SynthConfig(n_frames=60, seed=31))
    samples = [s for f in ds.frames for s in pairwise_deconstruct(f)]
    return {kind: train(samples, kind=kind, seed=0) for kind in ("knn", "trees", "logreg")}


def mixed_frames():
    """Frames of 0, 1 and 2 agents, coincident agents, unsorted ids, a
    crowd of more than 64 agents, and ordinary scenes, with repeated frame
    ids."""
    crowd = generate_synthetic(
        SynthConfig(n_frames=1, groups_per_frame=(16, 16), n_distractors=20, area=(40.0, 40.0),
                    seed=33)
    ).frames[0]
    assert len(crowd.agents) > 64
    scenes = generate_synthetic(SynthConfig(n_frames=12, seed=34)).frames
    unsorted = Frame(frame_id=90, agents=tuple(reversed(scenes[0].agents)))
    shuffled = list(scenes[1].agents)
    random.Random(35).shuffle(shuffled)
    coincident = Frame(
        frame_id=91,
        agents=(
            AgentPose.make(7, 1.0, 1.0, 0.0),
            AgentPose.make(3, 1.0, 1.0, math.pi),
            AgentPose.make(5, 1.5, 1.0, math.pi),
            AgentPose.make(9, 6.0, 6.0, 2.0),
        ),
    )
    return [
        Frame(frame_id=80, agents=()),
        Frame(frame_id=81, agents=(AgentPose.make(4, 0.0, 0.0, 0.0),)),
        Frame(frame_id=82, agents=(AgentPose.make(6, 0.0, 0.0, 0.0),
                                   AgentPose.make(2, 1.0, 0.0, math.pi))),
        coincident,
        unsorted,
        Frame(frame_id=92, agents=tuple(shuffled)),
        crowd,
        *scenes,
        scenes[2],
    ]


def reference_relation_matrix(model, frame):
    """The relation matrix filled pair by pair from the scalar features."""
    poses = sorted(frame.agents, key=lambda a: a.agent_id)
    n = len(poses)
    m = np.eye(n, dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            X = [[distance(poses[i], poses[j]), effort_angle(poses[i], poses[j])]]
            m[i, j] = m[j, i] = predict_batch(model, X)[0][0]
    return tuple(a.agent_id for a in poses), m


@pytest.mark.filterwarnings("ignore:agents 3 and 7 share a position")
@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_relation_matrices_of_many_frames_equal_those_of_one_frame(models, kind):
    model, frames = models[kind], mixed_frames()
    batch = build_relation_matrix(model, frames)
    assert isinstance(batch, list) and len(batch) == len(frames)
    for frame, got in zip(frames, batch):
        one = build_relation_matrix(model, frame)
        assert isinstance(one, RelationMatrix)
        assert got.ids == one.ids and np.array_equal(got.m, one.m)
        if len(frame.agents) < 30:
            ids, m = reference_relation_matrix(model, frame)
            assert got.ids == ids and np.array_equal(got.m, m)
        # The builder skips the constructor's checks, which its m passes;
        # the matrix rebuilt through the constructor, and copies, which go
        # through it too, give the same belief rows and groups.
        assert got.m.flags.c_contiguous and one.m.flags.c_contiguous
        validated = RelationMatrix(got.ids, got.m)
        rows, pairs = validated._belief_rows()
        assert rows == tuple(sum(1 << k for k in np.flatnonzero(r).tolist()) for r in got.m)
        assert pairs == [(i, j) for i, j in zip(*np.nonzero(got.m.tolist())) if i < j]
        copies = (pickle.loads(pickle.dumps(got)), copy.deepcopy(got), copy.copy(got),
                  dataclasses.replace(got))
        for rm in (got, one, validated, *copies):
            assert rm.ids == got.ids and np.array_equal(rm.m, got.m) and rm.m.dtype == np.uint8
            assert not rm.m.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rm.m[0:1, 0:1] = 1
            assert rm._belief_rows() == (rows, pairs)
            for mode in ("intersection", "union"):
                assert greedy_reconstruct(rm, mode).groups == greedy_reconstruct(validated, mode).groups


@pytest.mark.filterwarnings("ignore:agents 3 and 7 share a position")
def test_relation_matrices_compare_and_hash_by_ids_and_cells(models):
    assert RelationMatrix((1, 2), np.eye(2)) == RelationMatrix((1, 2), np.eye(2))
    assert hash(RelationMatrix((1, 2), np.eye(2))) == hash(RelationMatrix((1, 2), np.eye(2)))
    for frame in mixed_frames():
        built = build_relation_matrix(models["logreg"], frame)
        rebuilt = RelationMatrix(built.ids, np.array(built.m, dtype=np.int64))
        copies = (rebuilt, pickle.loads(pickle.dumps(built)), copy.deepcopy(built),
                  copy.copy(built), dataclasses.replace(built))
        for rm in copies:
            assert rm == built and built == rm and not rm != built
            assert hash(rm) == hash(built)
        assert len({built, *copies}) == 1
        assert built != (built.ids, built.m) and built != "matrix"
        if built.n >= 2:
            flipped = built.m.copy()
            flipped[0, 1] = flipped[1, 0] = 1 - flipped[0, 1]
            assert built != RelationMatrix(built.ids, flipped)
            ids = (*built.ids[:-1], built.ids[-1] + 1000)
            assert built != RelationMatrix(ids, built.m)
    # Equal ids and bytes, different shape: no such matrices pass the
    # constructor, so the shape is compared on trusted ones.
    flat = np.ones((1, 4), dtype=np.uint8)
    square = np.ones((2, 2), dtype=np.uint8)
    assert RelationMatrix._trusted((1, 2), flat) != RelationMatrix._trusted((1, 2), square)


@pytest.mark.filterwarnings("ignore:agents 3 and 7 share a position")
@pytest.mark.parametrize("mode", ["intersection", "union"])
@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_detect_on_many_frames_equals_detect_on_each(models, kind, mode):
    model, frames = models[kind], mixed_frames()
    batch = detect(model, frames, mode=mode)
    assert isinstance(batch, list)
    assert [gs.groups for gs in batch] == [detect(model, f, mode=mode).groups for f in frames]
    assert any(len(gs) > 0 for gs in batch)
    assert [gs.groups for gs in detect(model, iter(tuple(frames)), mode=mode)] == [
        gs.groups for gs in batch]


def test_detect_on_no_frames(models):
    assert detect(models["knn"], []) == []
    assert detect(models["trees"], ()) == []
    assert build_relation_matrix(models["logreg"], []) == []
    with pytest.raises(ValueError, match="unknown mode"):
        detect(models["logreg"], [], mode="both")


def test_detect_names_an_invalid_frame_of_a_batch(models):
    frames = generate_synthetic(SynthConfig(n_frames=3, seed=36)).frames
    bad = Frame(frame_id=77, agents=(AgentPose.make(1, 0, 0, 0), AgentPose(2, math.nan, 0.0, 0.0)))
    with pytest.raises(ValidationError, match="frame 77: agent 2 has non-finite position"):
        detect(models["knn"], [*frames, bad])


@pytest.mark.filterwarnings("ignore:agents 3 and 7 share a position")
@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_detect_from_four_threads_equals_serial_detect(models, kind):
    # The threads start on empty index caches and fill them side by side.
    model = models[kind]
    frames = mixed_frames()
    serial = [detect(model, f).groups for f in frames]
    features_mod.pair_indices.cache_clear()
    core_mod._upper_cells.cache_clear()
    start = threading.Barrier(4, timeout=60)

    def work(t):
        start.wait()
        order = list(range(len(frames)))
        random.Random(t).shuffle(order)
        got = {k: detect(model, frames[k]).groups for k in order}
        return [got[k] for k in range(len(frames))], [gs.groups for gs in detect(model, frames)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for one_by_one, at_once in pool.map(work, range(4)):
            assert one_by_one == serial
            assert at_once == serial
