"""Tests of the benchmark itself: smoke runs and planted errors.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fformation import (  # noqa: E402
    AgentPose,
    Frame,
    GroupSet,
    build_relation_matrix,
    cli,
    detect,
    evaluate,
    pairwise_deconstruct,
    predict_batch,
    reconstruction,
    train,
)
from fformation.synthetic import SynthConfig, generate_synthetic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = {
    "corpus": workloads.Shape(train={"n_frames": 120}, evaluation={"n_frames": 20},
                              reps={"knn": (2, 1), "trees": (1, 2), "logreg": (1, 1)}, slots=2),
    "crowd": workloads.Shape(
        train={"n_frames": 40},
        evaluation={"n_frames": 2, "groups_per_frame": (12, 12), "n_distractors": 10,
                    "area": (30.0, 30.0)},
        reps={"knn": (1, 1), "trees": (1, 1), "logreg": (1, 1)}, slots=2),
    "cli": workloads.Shape(train={"n_frames": 60}, evaluation={"n_frames": 20},
                           reps={"knn": (1, 1), "trees": (1, 2), "logreg": (2, 1)}, slots=2),
}


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SHAPES", SMOKE)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "SETUP_REPS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_reports_every_metric(smoke, capsys, tmp_path, name, trace):
    status = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        doc = json.loads((tmp_path / f"trace-{name}-seed3.json").read_text())
        assert doc["spans"] and doc["traced_units"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_restores_the_program():
    originals = (cli.detect, cli._LOADERS["canonical"], reconstruction.build_relation_matrix)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.detect is not originals[0]
        assert cli._LOADERS["canonical"] is not originals[1]
    assert (cli.detect, cli._LOADERS["canonical"], reconstruction.build_relation_matrix) == originals


def test_verify_rejects_a_moved_member_and_disagreeing_passes(smoke):
    shape = SMOKE["corpus"]
    workload = workloads.InProcess(shape, 3, workloads.Ledger())
    workload.setup()
    runs = {kind: workloads.KindRuns() for kind in tracing.KINDS}
    workload.round(runs)
    assert workloads.verify("corpus", workload, runs) == []
    detections = dict(runs["trees"].detections)
    fid = next(f for f, groups in detections.items() if len(groups) >= 2)
    first, second = (set(g) for g in detections[fid][:2])
    member = min(first)
    detections[fid] = (frozenset(first - {member}), frozenset(second | {member}),
                       *detections[fid][2:])
    runs["trees"].detections = detections
    problems = workloads.verify("corpus", workload, runs)
    assert any("trees" in p for p in problems)
    runs["logreg"].digests.add("a pass that detected something else")
    problems = workloads.verify("corpus", workload, runs)
    assert any("logreg" in p and "disagree" in p for p in problems)


def _pose(i, x, y, theta):
    return AgentPose.make(i, x, y, theta)


@pytest.fixture(scope="module")
def trained():
    frames = generate_synthetic(SynthConfig(n_frames=60, seed=11)).frames
    samples = [s for f in frames for s in pairwise_deconstruct(f)]
    scene = generate_synthetic(SynthConfig(n_frames=1, seed=12, groups_per_frame=(6, 6),
                                           n_distractors=6, area=(20.0, 20.0))).frames[0]
    models = {kind: train(samples, kind=kind, seed=1) for kind in tracing.KINDS}
    return frames, scene, models


def test_partition_check():
    checks.check_partition([1, 2, 3, 4], [{1, 2}, {3, 4}], "ok")
    for groups in ([{1, 2}, {2, 3}], [{1}], [{1, 5}]):
        with pytest.raises(checks.CheckError):
            checks.check_partition([1, 2, 3, 4], groups, "planted")


def test_f1_check_recomputes_evaluate(trained):
    frames, _, models = trained
    detections = {f.frame_id: detect(models["trees"], f) for f in frames}
    truths = {f.frame_id: f.truth.groups for f in frames}
    report = evaluate(list(detections.items()), [(f.frame_id, f.truth) for f in frames])
    groups = {fid: gs.groups for fid, gs in detections.items()}
    exact = checks.check_f1(groups, truths, report.f1, "ok")
    assert float(exact) == pytest.approx(report.f1, rel=1e-12)
    checks.check_printed_f1(f"{report.f1:.4f}", exact, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_f1(groups, truths, report.f1 + 1e-4, "planted")
    with pytest.raises(checks.CheckError):
        checks.check_printed_f1(f"{report.f1 + 1e-3:.4f}", exact, "planted")
    # A truth group of 3 with one member moved out keeps 2 = ceil(2/3 * 3) hits.
    assert checks.reference_f1({0: [{1, 2}]}, {0: [{1, 2, 3}]}) == 1
    assert checks.reference_f1({0: [{1, 2, 4}]}, {0: [{1, 2, 3}]}) == 1
    assert checks.reference_f1({0: [{1, 4}]}, {0: [{1, 2, 3}]}) == 0


def test_greedy_check_rejects_moved_member_and_order(trained):
    _, scene, models = trained
    matrix = build_relation_matrix(models["logreg"], scene)
    groups = reconstruction.greedy_reconstruct(matrix).groups
    checks.check_greedy(matrix, groups, "ok")
    assert len(groups) >= 2
    member = min(groups[0])
    moved = (groups[0] - {member}, groups[1] | {member}, *groups[2:])
    for planted in (moved, (groups[1], groups[0], *groups[2:])):
        with pytest.raises(checks.CheckError):
            checks.check_greedy(matrix, planted, "planted")


def test_greedy_reference_breaks_ties_lexicographically():
    # Two disjoint triangles agree on 3 agents each: the pair (0, 1) goes first.
    m = np.eye(6, dtype=np.uint8)
    for a, b in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)):
        m[a, b] = m[b, a] = 1
    ids = (10, 11, 12, 13, 14, 15)
    assert checks.reference_greedy(ids, m) == [frozenset({10, 11, 12}), frozenset({13, 14, 15})]


@pytest.mark.parametrize("kind", ["knn", "logreg"])
def test_score_references_match_and_reject_planted_scores(trained, kind):
    frames, scene, models = trained
    model = models[kind]
    X = [[s.distance, s.effort_angle]
         for f in (frames[0], scene) for s in pairwise_deconstruct(f)[:30]]
    reference = {"knn": checks.reference_knn, "logreg": checks.reference_logreg}[kind](model, X)
    labels, scores = predict_batch(model, X)
    checks.check_scores(reference, labels, scores, "ok")
    bad = scores.copy()
    bad[3] += 1e-9
    with pytest.raises(checks.CheckError):
        checks.check_scores(reference, labels, bad, "planted score")
    row = next(i for i, r in enumerate(reference) if abs(r - 0.5) > 1e-3)
    flipped = labels.copy()
    flipped[row] ^= 1
    with pytest.raises(checks.CheckError):
        checks.check_scores(reference, flipped, scores, "planted label")


def test_knn_reference_follows_the_tie_rule():
    # Four agents on a square: many pairs share a distance, so neighbour
    # selection at the k-th position is decided by label, then index.
    frames = []
    for fid in range(40):
        agents = tuple(_pose(i + 1, (i % 2) * (1 + fid % 3), (i // 2) * (1 + fid % 3),
                             (i * np.pi / 2 + fid % 5) % (2 * np.pi)) for i in range(4))
        frames.append(Frame(fid, agents, truth=GroupSet.from_iterable([[1, 2]] if fid % 2 else [])))
    samples = [s for f in frames for s in pairwise_deconstruct(f)]
    model = train(samples, kind="knn", hyperparams={"k": 3})
    X = [[s.distance, s.effort_angle] for s in samples[:40]] + [[1.2, 0.7], [2.5, 3.0]]
    labels, scores = predict_batch(model, X)
    checks.check_scores(checks.reference_knn(model, X), labels, scores, "ties")


def test_evaluation_frames_keep_the_agent_count():
    shape = workloads.Shape(train={"n_frames": 1}, reps={}, slots=1, agents=(50, 52),
                            evaluation={"n_frames": 4, "groups_per_frame": (12, 12),
                                        "n_distractors": 10, "area": (30.0, 30.0)})
    frames = workloads.evaluation_frames(shape, 3)
    assert len(frames) == 4 and all(50 <= len(f.agents) <= 52 for f in frames)
    assert [f.frame_id for f in workloads.evaluation_frames(shape, 3)] == [
        f.frame_id for f in frames]


def test_floor_and_same_checks():
    checks.check_floor(0.95, 0.90, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_floor(0.8999, 0.90, "planted")
    checks.check_same({0: [[1, 2]]}, {0: [frozenset({2, 1})]}, "ok")
    for got in ({0: [[1, 3]]}, {1: [[1, 2]]}, {0: [[1, 2], [3, 4]]}):
        with pytest.raises(checks.CheckError):
            checks.check_same(got, {0: [frozenset({1, 2})]}, "planted")


def test_digest_is_canonical():
    a = checks.digest({2: [{4, 3}], 1: [frozenset({2, 1}), {6, 5}]})
    assert a == checks.digest({1: [[5, 6], [1, 2]], 2: [[3, 4]]})
    assert a != checks.digest({1: [[5, 6], [1, 3]], 2: [[3, 4]]})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

