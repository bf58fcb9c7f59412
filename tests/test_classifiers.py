"""Classifier training, prediction, tie-breaking, and persistence."""

import json
import math
import random

import numpy as np
import pytest

from fformation.classifiers import (
    DEFAULT_HYPERPARAMS,
    KINDS,
    ModelFormatError,
    TrainedModel,
    TrainingError,
    build_relation_matrix,
    canonical_kind,
    load_model,
    model_from_dict,
    model_to_dict,
    pairwise_accuracy,
    predict,
    predict_batch,
    save_model,
    train,
)
from fformation.classifiers import knn as knn_mod
from fformation.classifiers import logreg as logreg_mod
from fformation.classifiers import trees as trees_mod
from fformation.classifiers.base import (
    FeatureScaling,
    fit_scaling,
    resolve_hyperparams,
    samples_to_arrays,
)
from fformation.core import AgentPose, Frame, PairSample
from fformation.features import pairwise_deconstruct
from fformation.synthetic import SynthConfig, generate_synthetic


def make_samples(rows):
    return [
        PairSample(id_a=i, id_b=i + 100, distance=d, effort_angle=e, label=lab)
        for i, (d, e, lab) in enumerate(rows)
    ]


def separable_samples(n=200, seed=0):
    """Close+facing positives, far+averted negatives; linearly separable."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n // 2):
        rows.append((rng.uniform(0.4, 1.2), rng.uniform(0.0, 1.2), 1))
        rows.append((rng.uniform(2.5, 6.0), rng.uniform(2.0, 6.2), 0))
    return make_samples(rows)


# ---------------------------------------------------------------- base

def test_samples_to_arrays_is_order_invariant():
    samples = separable_samples(60, seed=1)
    shuffled = list(samples)
    random.Random(9).shuffle(shuffled)
    X1, y1 = samples_to_arrays(samples)
    X2, y2 = samples_to_arrays(shuffled)
    assert np.array_equal(X1, X2)
    assert np.array_equal(y1, y2)


def test_samples_to_arrays_rejections():
    with pytest.raises(TrainingError, match="labeled"):
        samples_to_arrays(make_samples([(1.0, 1.0, None), (2.0, 2.0, 0)]))
    with pytest.raises(TrainingError, match="at least 2"):
        samples_to_arrays(make_samples([(1.0, 1.0, 1)]))
    with pytest.raises(TrainingError, match="degenerate labels"):
        samples_to_arrays(make_samples([(1.0, 1.0, 1), (2.0, 2.0, 1)]))
    with pytest.raises(TrainingError, match="non-finite"):
        samples_to_arrays(make_samples([(math.nan, 1.0, 1), (2.0, 2.0, 0)]))


def test_fit_scaling_rejects_zero_variance():
    with pytest.raises(TrainingError, match="degenerate feature: distance"):
        fit_scaling(np.array([[1.0, 0.5], [1.0, 2.5]]))
    with pytest.raises(TrainingError, match="degenerate feature: effort_angle"):
        fit_scaling(np.array([[1.0, 2.5], [3.0, 2.5]]))


def test_kind_resolution():
    assert canonical_kind("knn") == "weighted_knn"
    assert canonical_kind("trees") == "bagged_trees"
    assert canonical_kind("logreg") == "logistic_regression"
    assert canonical_kind("bagged_trees") == "bagged_trees"
    with pytest.raises(ValueError, match="unknown classifier kind"):
        canonical_kind("svm")
    with pytest.raises(ValueError, match="unknown hyperparameter"):
        resolve_hyperparams("weighted_knn", {"n_trees": 5})


# ---------------------------------------------------------------- knn

def oracle_knn_score(pts, labels, q, k):
    """Documented selection rule: sort by (distance, label, index), take k."""
    d2 = [(q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2 for p in pts]
    order = sorted(range(len(pts)), key=lambda i: (d2[i], labels[i], i))
    sel = order[: min(k, len(pts))]
    if d2[sel[0]] == 0.0:
        exact = [labels[i] for i in sel if d2[i] == 0.0]
        return sum(exact) / len(exact)
    wsum = sum(1.0 / d2[i] for i in sel)
    return sum(labels[i] / d2[i] for i in sel) / wsum


def test_knn_matches_oracle_on_random_data():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        pts = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        params = knn_mod.fit(pts, labels)
        k = int(rng.integers(1, n + 1))
        queries = rng.normal(size=(8, 2))
        got = knn_mod.scores(params, k, queries)
        for qi, q in enumerate(queries):
            want = oracle_knn_score(pts, labels, q, k)
            assert math.isclose(got[qi], want, rel_tol=1e-12, abs_tol=1e-12), (trial, qi)


def test_knn_matches_oracle_under_heavy_distance_ties():
    # Integer grid features produce many exactly equal distances, forcing
    # the boundary tie-break (label 0 first, then lower index) to matter.
    rng = np.random.default_rng(6)
    for trial in range(40):
        n = int(rng.integers(5, 30))
        pts = rng.integers(-2, 3, size=(n, 2)).astype(np.float64)
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        params = knn_mod.fit(pts, labels)
        k = int(rng.integers(1, n + 1))
        queries = rng.integers(-2, 3, size=(6, 2)).astype(np.float64)
        got = knn_mod.scores(params, k, queries)
        for qi, q in enumerate(queries):
            want = oracle_knn_score(pts, labels, q, k)
            assert math.isclose(got[qi], want, rel_tol=1e-12, abs_tol=1e-12), (trial, qi)


def brute_force_knn_scores(params, k, Xs):
    """Scores from every training point: the selection and summation of
    ``knn._row_score`` over full rows of squared distances."""
    pts = params.points
    n = pts.shape[0]
    k = min(int(k), n)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    out = np.empty(Xs.shape[0], dtype=np.float64)
    block = max(1, int(2e7) // n)
    for start in range(0, Xs.shape[0], block):
        q = Xs[start : start + block]
        d2 = (q[:, 0:1] - pts[None, :, 0]) ** 2
        d2 += (q[:, 1:2] - pts[None, :, 1]) ** 2
        for i in range(q.shape[0]):
            out[start + i] = knn_mod._row_score(d2[i], params.labels, k)
    return out


def assert_grid_matches_brute_force(pts, labels, queries, ks=(1, 3, 10)):
    params = knn_mod.fit(pts, labels)
    for k in ks:
        got = knn_mod.scores(params, k, queries)
        want = brute_force_knn_scores(params, k, queries)
        assert np.array_equal(got, want, equal_nan=True), k


def test_knn_grid_matches_brute_force_on_synthetic_corpus():
    frames = generate_synthetic(SynthConfig(n_frames=1600, seed=7)).frames
    samples = [s for f in frames for s in pairwise_deconstruct(f)]
    assert len(samples) >= 50_000
    model = train(samples, kind="knn", seed=0)
    params = model.params
    held_out = [
        s for f in generate_synthetic(SynthConfig(n_frames=20, seed=8)).frames
        for s in pairwise_deconstruct(f)
    ]
    evaluation = model.scaling.apply([[s.distance, s.effort_angle] for s in held_out])
    rng = np.random.default_rng(0)
    own = params.points[rng.choice(len(params.points), size=300, replace=False)]
    queries = np.concatenate([evaluation, own])
    for k in (1, 10, 25):
        got = knn_mod.scores(params, k, queries)
        assert np.array_equal(got, brute_force_knn_scores(params, k, queries)), k


def test_knn_grid_matches_brute_force_far_outside_the_training_box():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(2000, 2))
    labels = rng.integers(0, 2, size=2000).astype(np.uint8)
    far = np.array([[40.0, 0.0], [-40.0, 0.3], [0.1, 300.0], [1e6, -1e6], [-25.0, 25.0], [1e150, 0.0]])
    queries = np.concatenate([far, rng.normal(size=(50, 2)) * 30.0])
    assert_grid_matches_brute_force(pts, labels, queries)


def test_knn_grid_matches_brute_force_on_clusters_and_duplicates():
    rng = np.random.default_rng(22)
    centers = rng.uniform(-10, 10, size=(6, 2))
    clustered = np.repeat(centers, 300, axis=0) + rng.normal(scale=1e-3, size=(1800, 2))
    duplicates = np.repeat(rng.uniform(-10, 10, size=(20, 2)), 15, axis=0)
    pts = np.concatenate([clustered, duplicates, centers])
    labels = rng.integers(0, 2, size=len(pts)).astype(np.uint8)
    queries = np.concatenate([duplicates[::15], centers, centers + 1e-4, rng.uniform(-12, 12, size=(60, 2))])
    assert_grid_matches_brute_force(pts, labels, queries, ks=(1, 10, 20, 40))


def test_knn_grid_matches_brute_force_when_points_share_a_coordinate():
    rng = np.random.default_rng(23)
    line = rng.normal(size=500)
    labels = rng.integers(0, 2, size=500).astype(np.uint8)
    queries = rng.normal(size=(60, 2))
    for pts in (
        np.column_stack([line, np.full(500, 0.7)]),
        np.column_stack([np.full(500, -1.5), line]),
        np.full((500, 2), 2.0),
    ):
        assert_grid_matches_brute_force(pts, labels, np.concatenate([queries, pts[:5]]))


def test_knn_grid_matches_brute_force_on_cell_edges():
    rng = np.random.default_rng(24)
    pts = rng.integers(-6, 7, size=(3000, 2)).astype(np.float64) * 0.5
    labels = rng.integers(0, 2, size=3000).astype(np.uint8)
    params = knn_mod.fit(pts, labels)
    nx, ny = params.shape
    edges_x = params.origin[0] + params.cell * np.arange(nx + 1)
    edges_y = params.origin[1] + params.cell * np.arange(ny + 1)
    queries = np.array([[x, y] for x in edges_x for y in edges_y[::2]])
    assert_grid_matches_brute_force(pts, labels, queries, ks=(1, 10, 30))
    # Training points on the edges too.
    edge_pts = np.column_stack([rng.choice(edges_x, 1000), rng.choice(edges_y, 1000)])
    assert_grid_matches_brute_force(edge_pts, labels[:1000], queries, ks=(1, 10))


def test_knn_grid_counts_underflowing_distances_as_exact_matches():
    # Differences of at most 2**-542 square to zero, so every point is an
    # exact match; the label-0 point in the next cell must still win.
    s = 2.0**-545
    pts = s * np.array([[4, 0], [3, 1], [0, 8], [8, 0]] + [[8, 8]] * 12, dtype=np.float64)
    labels = np.array([0] + [1] * 15, dtype=np.uint8)
    query = [[3 * s, 0.0]]
    assert knn_mod.scores(knn_mod.fit(pts, labels), 1, query)[0] == 0.0
    assert_grid_matches_brute_force(pts, labels, query, ks=(1, 2, 16))


def test_knn_grid_matches_brute_force_when_k_reaches_n():
    rng = np.random.default_rng(25)
    pts = rng.normal(size=(15, 2))
    labels = rng.integers(0, 2, size=15).astype(np.uint8)
    assert_grid_matches_brute_force(pts, labels, rng.normal(size=(20, 2)) * 3, ks=(14, 15, 16, 100))


def test_knn_exact_match_dominates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    labels = np.array([1, 0, 0], dtype=np.uint8)
    params = knn_mod.fit(pts, labels)
    # Two exact matches with opposite labels average to 0.5.
    assert knn_mod.scores(params, 3, [[0.0, 0.0]])[0] == 0.5


def test_knn_k1_memorizes_distinct_training_set():
    samples = separable_samples(80, seed=2)
    model = train(samples, kind="knn", hyperparams={"k": 1}, seed=0)
    assert pairwise_accuracy(model, samples) == 1.0


def test_knn_two_sample_example():
    samples = make_samples([(0.5, 0.2, 1), (3.0, 3.0, 0)])
    model = train(samples, kind="weighted_knn", seed=0)
    assert predict(model, 0.5, 0.2)[0] == 1
    assert predict(model, 3.0, 3.0)[0] == 0


# ---------------------------------------------------------------- trees

def oracle_best_split_score(X, y, min_leaf):
    """Minimum weighted Gini over all valid axis-aligned splits."""
    n = len(y)
    best = math.inf
    for f in range(X.shape[1]):
        for thr in sorted(set(X[:, f]))[:-1]:
            left = X[:, f] <= thr
            nl, nr = int(left.sum()), int(n - left.sum())
            if nl < min_leaf or nr < min_leaf:
                continue

            def gini(mask):
                p = y[mask].mean()
                return 1.0 - p * p - (1.0 - p) ** 2

            best = min(best, (nl * gini(left) + nr * gini(~left)) / n)
    return best


def test_best_split_achieves_oracle_minimum():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, 2)).round(1)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        min_leaf = int(rng.integers(1, 4))
        got = trees_mod._best_split(X, y, min_leaf)
        want = oracle_best_split_score(X, y, min_leaf)
        if got is None:
            assert want == math.inf, trial
            continue
        f, thr, left_mask = got
        nl, nr = int(left_mask.sum()), int(n - left_mask.sum())
        assert nl >= min_leaf and nr >= min_leaf

        def gini(mask):
            p = y[mask].mean()
            return 1.0 - p * p - (1.0 - p) ** 2

        score = (nl * gini(left_mask) + nr * gini(~left_mask)) / n
        assert math.isclose(score, want, rel_tol=1e-9, abs_tol=1e-12), trial
        assert np.array_equal(left_mask, X[:, f] <= thr)


def test_single_deep_tree_fits_consistent_data_exactly():
    # XOR labels need zero-gain splits to be taken; depth-2 solves it.
    samples = make_samples([(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)])
    model = train(
        samples,
        kind="trees",
        hyperparams={"n_trees": 1, "max_depth": None, "min_leaf": 1, "bootstrap": False},
        seed=0,
    )
    assert pairwise_accuracy(model, samples) == 1.0

    rng = random.Random(11)
    rows = [(rng.uniform(0, 5), rng.uniform(0, 6), rng.randint(0, 1)) for _ in range(120)]
    rows.append((7.0, 7.0, 1 - rows[-1][2]))  # guarantee both classes
    samples = make_samples(rows)
    model = train(
        samples,
        kind="trees",
        hyperparams={"n_trees": 1, "max_depth": None, "min_leaf": 1, "bootstrap": False},
        seed=0,
    )
    assert pairwise_accuracy(model, samples) == 1.0


def test_tree_growth_respects_min_leaf():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(np.uint8)
    min_leaf = 5
    tree = trees_mod._grow(X, y, max_depth=None, min_leaf=min_leaf)
    # Walk training points down the tree; every split side must hold >= min_leaf.
    counts = {0: np.arange(len(y))}
    for node in range(len(tree.feature)):
        idx = counts.get(node)
        if idx is None or tree.feature[node] < 0:
            continue
        go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
        left_idx, right_idx = idx[go_left], idx[~go_left]
        assert len(left_idx) >= min_leaf and len(right_idx) >= min_leaf, node
        counts[tree.left[node]] = left_idx
        counts[tree.right[node]] = right_idx


def test_trees_training_is_deterministic_per_seed():
    samples = separable_samples(150, seed=3)
    q = np.random.default_rng(0).uniform(0, 6, size=(50, 2))
    m1 = train(samples, kind="trees", seed=42)
    m2 = train(samples, kind="trees", seed=42)
    _, s1 = predict_batch(m1, q)
    _, s2 = predict_batch(m2, q)
    assert np.array_equal(s1, s2)


def test_trees_learn_separable_data():
    samples = separable_samples(300, seed=4)
    model = train(samples, kind="trees", seed=0)
    assert pairwise_accuracy(model, samples) >= 0.97


# ---------------------------------------------------------------- logreg

def test_logreg_gradient_matches_central_differences():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 2))
    y = rng.integers(0, 2, size=60).astype(np.uint8)
    l2 = 1e-4
    h = 1e-6
    for _ in range(200):
        coef = rng.normal(scale=2.0, size=3)
        analytic = logreg_mod.gradient(coef, X, y, l2)
        numeric = np.empty(3)
        for i in range(3):
            up, dn = coef.copy(), coef.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (logreg_mod.loss(up, X, y, l2) - logreg_mod.loss(dn, X, y, l2)) / (2 * h)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_logreg_zero_weights_score_half():
    params = logreg_mod.LogisticParams(coef=np.zeros(3))
    assert logreg_mod.scores(params, [[3.0, 1.0]])[0] == 0.5


def test_logreg_learns_separable_data_and_is_deterministic():
    samples = separable_samples(200, seed=5)
    m1 = train(samples, kind="logreg", seed=0)
    m2 = train(samples, kind="logreg", seed=0)
    assert np.array_equal(m1.params.coef, m2.params.coef)
    assert pairwise_accuracy(m1, samples) >= 0.98


def test_logreg_descent_reduces_loss():
    samples = separable_samples(100, seed=6)
    X, y = samples_to_arrays(samples)
    scaling = fit_scaling(X)
    Xs = scaling.apply(X)
    fitted = logreg_mod.fit(Xs, y, l2=1e-4, learning_rate=0.1, epochs=2000, tol=1e-8)
    assert logreg_mod.loss(fitted.coef, Xs, y, 1e-4) < logreg_mod.loss(np.zeros(3), Xs, y, 1e-4)


# ---------------------------------------------------------------- shared API

def test_predict_threshold_rule():
    samples = separable_samples(120, seed=7)
    q = np.random.default_rng(1).uniform(0, 6, size=(200, 2))
    for kind in KINDS:
        model = train(samples, kind=kind, seed=0)
        labels, scores = predict_batch(model, q)
        assert np.array_equal(labels, (scores >= 0.5).astype(np.uint8)), kind
        assert np.all((scores >= 0.0) & (scores <= 1.0)), kind


def test_predict_rejects_non_finite_input():
    model = train(separable_samples(40, seed=8), kind="logreg", seed=0)
    with pytest.raises(ValueError, match="finite"):
        predict(model, math.inf, 0.0)
    with pytest.raises(ValueError, match="finite"):
        predict(model, 1.0, math.nan)


def test_train_rejects_degenerate_labels():
    rows = [(1.0, 1.0, 1), (2.0, 2.0, 1), (3.0, 1.5, 1)]
    for kind in KINDS:
        with pytest.raises(TrainingError, match="degenerate labels"):
            train(make_samples(rows), kind=kind)


def test_labels_invariant_under_consistent_affine_rescaling():
    rng = random.Random(12)
    base = separable_samples(150, seed=9)
    q = np.random.default_rng(2).uniform(0, 6, size=(100, 2))
    for kind in KINDS:
        ref_labels, _ = predict_batch(train(base, kind=kind, seed=0), q)
        for _ in range(3):
            a1, a2 = rng.uniform(0.1, 20), rng.uniform(0.1, 20)
            c1, c2 = rng.uniform(-30, 30), rng.uniform(-30, 30)
            scaled = [
                PairSample(
                    id_a=s.id_a,
                    id_b=s.id_b,
                    distance=a1 * s.distance + c1,
                    effort_angle=a2 * s.effort_angle + c2,
                    label=s.label,
                )
                for s in base
            ]
            q_scaled = np.column_stack([a1 * q[:, 0] + c1, a2 * q[:, 1] + c2])
            labels, _ = predict_batch(train(scaled, kind=kind, seed=0), q_scaled)
            assert np.array_equal(labels, ref_labels), kind


def test_pairwise_accuracy_validation():
    model = train(separable_samples(40, seed=10), kind="logreg", seed=0)
    with pytest.raises(ValueError, match="no samples"):
        pairwise_accuracy(model, [])
    with pytest.raises(ValueError, match="labeled"):
        pairwise_accuracy(model, make_samples([(1.0, 1.0, None)]))


# -------------------------------------------------- relation matrix

def _const_model(bias):
    """Logistic model with fixed coefficients and identity scaling."""
    coef = np.array(bias, dtype=np.float64)
    return TrainedModel(
        kind="logistic_regression",
        scaling=FeatureScaling(mean=np.zeros(2), std=np.ones(2)),
        seed=0,
        hyperparams=dict(DEFAULT_HYPERPARAMS["logistic_regression"]),
        params=logreg_mod.LogisticParams(coef=coef),
    )


def _frame(poses):
    return Frame(frame_id=0, agents=tuple(poses))


def test_build_relation_matrix_structure():
    always_yes = _const_model([100.0, 0.0, 0.0])
    one = _frame([AgentPose.make(1, 0, 0, 0)])
    rm = build_relation_matrix(always_yes, one)
    assert rm.ids == (1,) and rm.m.tolist() == [[1]]

    three = _frame(
        [AgentPose.make(3, 0, 0, 0), AgentPose.make(1, 1, 0, math.pi), AgentPose.make(2, 0, 1, 0)]
    )
    rm = build_relation_matrix(always_yes, three)
    assert rm.ids == (1, 2, 3)
    assert rm.m.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

    always_no = _const_model([-100.0, 0.0, 0.0])
    rm = build_relation_matrix(always_no, three)
    assert rm.m.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_build_relation_matrix_distance_rule():
    # score = sigmoid(5 - 4*distance): positive below 1.25 m.
    model = _const_model([5.0, -4.0, 0.0])
    frame = _frame(
        [
            AgentPose.make(1, 0.0, 0.0, 0.0),
            AgentPose.make(2, 1.0, 0.0, math.pi),
            AgentPose.make(3, 10.0, 0.0, math.pi),
        ]
    )
    rm = build_relation_matrix(model, frame)
    assert rm.m.tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]


def test_build_relation_matrix_symmetric_on_random_frames():
    model = _const_model([1.0, -1.5, 0.3])
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 8)
        frame = _frame(
            [
                AgentPose.make(
                    i + 1,
                    rng.uniform(-4, 4),
                    rng.uniform(-4, 4),
                    rng.uniform(0, 2 * math.pi),
                )
                for i in range(n)
            ]
        )
        rm = build_relation_matrix(model, frame)
        assert np.array_equal(rm.m, rm.m.T)
        assert np.all(np.diag(rm.m) == 1)
        assert rm.ids == tuple(sorted(frame.agent_ids()))


# ---------------------------------------------------------------- persistence

def test_model_round_trip_bit_identical_predictions(tmp_path):
    samples = separable_samples(160, seed=11)
    q = np.random.default_rng(3).uniform(0, 7, size=(500, 2))
    for kind in KINDS:
        model = train(samples, kind=kind, seed=5)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.seed == model.seed
        assert loaded.hyperparams == model.hyperparams
        assert np.array_equal(loaded.scaling.mean, model.scaling.mean)
        assert np.array_equal(loaded.scaling.std, model.scaling.std)
        _, s_orig = predict_batch(model, q)
        _, s_load = predict_batch(loaded, q)
        assert np.array_equal(s_orig, s_load), kind


def test_model_dict_round_trip_preserves_tree_arrays():
    model = train(separable_samples(80, seed=12), kind="trees", seed=3)
    clone = model_from_dict(model_to_dict(model))
    for t1, t2 in zip(model.params.trees, clone.params.trees):
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.threshold, t2.threshold)
        assert np.array_equal(t1.left, t2.left)
        assert np.array_equal(t1.right, t2.right)
        assert np.array_equal(t1.value, t2.value)


def test_load_model_rejects_malformed_documents(tmp_path):
    model = train(separable_samples(40, seed=13), kind="logreg", seed=0)
    doc = model_to_dict(model)
    bad_format = dict(doc, format="something-else")
    with pytest.raises(ModelFormatError, match="not a"):
        model_from_dict(bad_format)
    bad_version = dict(doc, schema_version=99)
    with pytest.raises(ModelFormatError, match="schema_version"):
        model_from_dict(bad_version)
    missing = dict(doc)
    del missing["params"]
    with pytest.raises(ModelFormatError, match="malformed"):
        model_from_dict(missing)

    def edited(doc, edit):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        return bad

    def put(*keys_and_value):
        *keys, last, value = keys_and_value

        def edit(d):
            for key in keys:
                d = d[key]
            d[last] = value

        return edit

    samples = separable_samples(40, seed=13)
    knn_doc = model_to_dict(train(samples, kind="knn", seed=0))
    trees_doc = model_to_dict(train(samples, kind="trees", hyperparams={"n_trees": 2}, seed=0))
    tree = trees_doc["params"]["trees"][0]
    internal = tree["feature"].index(0) if 0 in tree["feature"] else tree["feature"].index(1)
    leaf = tree["feature"].index(-1)
    n_nodes = len(tree["feature"])
    bad_documents = [
        # kNN training set and k
        (knn_doc, put("params", "points", 3, [math.nan, 0.0])),
        (knn_doc, put("params", "points", 0, [math.inf, 0.0])),
        (knn_doc, put("params", "points", 0, [0.0, 1.0, 2.0])),
        (knn_doc, put("params", "points", [])),
        (knn_doc, put("params", "labels", 0, 7)),
        (knn_doc, put("params", "labels", 0, -1)),
        (knn_doc, put("params", "labels", 0, 0.5)),
        (knn_doc, put("params", "labels", knn_doc["params"]["labels"][:-1])),
        (knn_doc, put("hyperparams", "k", 0)),
        (knn_doc, put("hyperparams", "k", 2.5)),
        (knn_doc, put("hyperparams", "k", True)),
        # scaling, for every kind
        (doc, put("scaling", "std", [0.0, 1.0])),
        (knn_doc, put("scaling", "std", [1.0, -2.0])),
        (trees_doc, put("scaling", "mean", [math.nan, 0.0])),
        (doc, put("scaling", "mean", [0.0, 0.0, 0.0])),
        (doc, put("params", "coef", [0.0, math.nan, 1.0])),
        # tree node arrays
        (trees_doc, put("params", "trees", 0, "left", 0, 0)),
        (trees_doc, put("params", "trees", 0, "left", internal, internal)),
        (trees_doc, put("params", "trees", 0, "right", internal, n_nodes)),
        (trees_doc, put("params", "trees", 0, "left", leaf, n_nodes - 1)),
        (trees_doc, put("params", "trees", 0, "feature", leaf, 2)),
        (trees_doc, put("params", "trees", 0, "value", tree["value"][:-1])),
        (trees_doc, put("params", "trees", 0, "threshold", internal, math.inf)),
        (trees_doc, put("params", "trees", 0, "value", leaf, 1.5)),
        (trees_doc, put("params", "trees", 0, "value", leaf, math.nan)),
        (trees_doc, put("params", "trees", [])),
    ]
    for good, edit in bad_documents:
        with pytest.raises(ModelFormatError, match="malformed"):
            model_from_dict(edited(good, edit))
    for good in (doc, knn_doc, trees_doc):
        model_from_dict(edited(good, lambda d: None))

    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        load_model(path)
    path.write_text("[1,2,3]", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="object"):
        load_model(path)
