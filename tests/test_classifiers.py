"""Classifier training, prediction, tie-breaking, and persistence."""

import json
import math
import random
import sys
import threading
import warnings
from contextlib import contextmanager

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
from fformation.core import AgentPose, Frame, PairSample, PairTable
from fformation.evaluation import majority_baseline
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


def reference_samples_to_arrays(samples):
    """The (X, y) of sorting the sample objects themselves."""
    ordered = sorted(samples, key=lambda s: (s.distance, s.effort_angle, s.label, s.id_a, s.id_b))
    X = np.array([[s.distance, s.effort_angle] for s in ordered], dtype=np.float64)
    y = np.array([s.label for s in ordered], dtype=np.uint8)
    return X, y


def test_samples_to_arrays_orders_as_sorted_samples_under_ties():
    rng = random.Random(21)
    samples = [
        PairSample(
            id_a=rng.randrange(5),
            id_b=rng.randrange(5, 10),
            distance=rng.choice([0.5, 1.0, 1.0 + 2**-52, 2.0]),
            effort_angle=rng.choice([0.0, 0.25, 3.0]),
            label=rng.choice([0, 1, True, False]),
        )
        for _ in range(400)
    ]
    for _ in range(3):
        X, y = samples_to_arrays(samples)
        want_X, want_y = reference_samples_to_arrays(samples)
        assert np.array_equal(X, want_X)
        assert np.array_equal(y, want_y)
        assert y.dtype == np.uint8
        rng.shuffle(samples)
    corpus = [s for f in generate_synthetic(SynthConfig(n_frames=200, seed=22)).frames
              for s in pairwise_deconstruct(f)]
    for got, want in zip(samples_to_arrays(corpus), reference_samples_to_arrays(corpus)):
        assert np.array_equal(got, want)


def _corpus_pairs():
    """The training pairs of a corpus as a PairTable and as PairSamples."""
    frames = generate_synthetic(SynthConfig(n_frames=60, seed=21)).frames
    return pairwise_deconstruct(frames), [s for f in frames for s in pairwise_deconstruct(f)]


def test_samples_to_arrays_of_a_table_equal_those_of_its_samples():
    table, samples = _corpus_pairs()
    for got, want in zip(samples_to_arrays(table), samples_to_arrays(samples)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert samples_to_arrays(PairTable.from_samples(samples, "test"))[0].tobytes() == \
        samples_to_arrays(samples)[0].tobytes()


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_training_on_a_table_equals_training_on_its_samples(kind):
    table, samples = _corpus_pairs()
    from_table = train(table, kind=kind, seed=4)
    from_samples = train(samples, kind=kind, seed=4)
    assert model_to_dict(from_table) == model_to_dict(from_samples)
    assert pairwise_accuracy(from_table, table) == pairwise_accuracy(from_samples, samples)
    assert majority_baseline(table) == majority_baseline(samples)


def test_a_table_is_checked_as_its_samples_are():
    table, _ = _corpus_pairs()
    single = PairTable(X=table.X[:1], y=table.y[:1], ids=table.ids[:1])
    with pytest.raises(TrainingError, match="at least 2"):
        train(single, kind="logreg")
    one_class = PairTable(X=table.X, y=np.zeros_like(table.y), ids=table.ids)
    with pytest.raises(TrainingError, match="single class"):
        train(one_class, kind="logreg")
    empty = PairTable(X=table.X[:0], y=table.y[:0], ids=table.ids[:0])
    with pytest.raises(ValueError, match="no samples to score"):
        pairwise_accuracy(train(table, kind="logreg"), empty)
    with pytest.raises(ValueError, match="majority_baseline requires samples"):
        majority_baseline(empty)
    unlabeled = [PairSample(1, 2, 1.0, 1.0)]
    with pytest.raises(ValueError, match="pairwise_accuracy requires labeled samples"):
        pairwise_accuracy(train(table, kind="logreg"), unlabeled)
    with pytest.raises(ValueError, match="majority_baseline requires labeled samples"):
        majority_baseline(unlabeled)


def test_samples_to_arrays_rejects_labels_other_than_0_and_1():
    with pytest.raises(TrainingError, match="0 or 1"):
        samples_to_arrays(make_samples([(1.0, 1.0, 1), (2.0, 2.0, 0), (3.0, 2.0, 2)]))
    with pytest.raises(TrainingError, match="0 or 1"):
        samples_to_arrays(make_samples([(1.0, 1.0, 1), (2.0, 2.0, 0.5)]))


@pytest.mark.parametrize(
    "kind, hyperparams",
    [
        ("knn", {"k": 0}),
        ("knn", {"k": -3}),
        ("knn", {"k": 2.5}),
        ("knn", {"k": True}),
        ("trees", {"n_trees": 0}),
        ("trees", {"min_leaf": 0}),
        ("trees", {"max_depth": 0}),
        ("trees", {"max_depth": -1}),
        ("logreg", {"l2": -1e-4}),
        ("logreg", {"l2": math.inf}),
        ("logreg", {"tol": -1e-8}),
        ("logreg", {"tol": math.nan}),
        ("logreg", {"epochs": -1}),
        ("trees", {"bootstrap": 1}),
        ("logreg", {"epochs": 2.0}),
        ("logreg", {"epochs": True}),
        ("trees", {"max_depth": True}),
        ("trees", {"n_trees": -int("9" * 401)}),
    ],
)
def test_train_rejects_out_of_range_hyperparameters(kind, hyperparams):
    (name,) = hyperparams
    with pytest.raises(TrainingError, match=f"hyperparameter {name} must be"):
        train(separable_samples(40, seed=23), kind=kind, hyperparams=hyperparams)


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
@pytest.mark.parametrize(
    "seed", [1.5, "7", True, False, -1, None, np.float64(2.0), np.bool_(True), np.int64(-1)]
)
def test_train_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(kind, seed):
    with pytest.raises(TrainingError, match="seed must be an integer >= 0"):
        train(separable_samples(40, seed=23), kind=kind, seed=seed)


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_train_stores_a_numpy_integer_seed_as_a_python_int(kind):
    samples = separable_samples(40, seed=23)
    model = train(samples, kind=kind, seed=np.uint8(7))
    assert type(model.seed) is int and model.seed == 7
    assert model_to_dict(model) == model_to_dict(train(samples, kind=kind, seed=7))


def test_train_accepts_hyperparameters_on_the_edge_of_their_range():
    samples = separable_samples(40, seed=23)
    train(samples, kind="knn", hyperparams={"k": 1})
    train(samples, kind="trees", hyperparams={"n_trees": 1, "max_depth": None, "min_leaf": 1})
    train(samples, kind="trees", hyperparams={"max_depth": 1})
    model = train(samples, kind="logreg", hyperparams={"l2": 0, "tol": 0.0, "epochs": 0})
    assert np.array_equal(model.params.coef, np.zeros(3))


def test_train_rejects_the_retired_learning_rate():
    with pytest.raises(ValueError, match="unknown hyperparameter 'learning_rate'"):
        train(separable_samples(40, seed=23), kind="logreg", hyperparams={"learning_rate": 0.1})


@pytest.mark.parametrize("name", ["l2", "tol"])
def test_train_names_a_hyperparameter_too_large_for_a_float(name):
    with pytest.raises(TrainingError, match=f"^hyperparameter {name}: int too large"):
        train(separable_samples(40, seed=23), kind="logreg", hyperparams={name: 10**400})


def _error_after(name, check):
    """What the ValueError ``check()`` raises says after ``name``, or None
    when it raises nothing."""
    try:
        check()
    except ValueError as exc:
        assert str(exc).startswith(name)
        return str(exc)[len(name):]
    return None


# The shared rules of core, each with a hyperparameter and a generator
# config field that keep it.
@pytest.mark.parametrize(
    "kind, hyperparameter, field",
    [
        ("weighted_knn", "k", "n_frames"),
        ("logistic_regression", "epochs", "n_distractors"),
        ("logistic_regression", "l2", "radial_jitter"),
    ],
)
@pytest.mark.parametrize(
    "value", [True, math.nan, math.inf, -math.inf, -1, 1.5, pytest.param(int("9" * 401), id="401-digits")]
)
def test_hyperparameters_and_generator_configs_describe_a_bad_value_alike(
    kind, hyperparameter, field, value
):
    by_hyperparams = _error_after(
        f"hyperparameter {hyperparameter}", lambda: resolve_hyperparams(kind, {hyperparameter: value})
    )
    by_config = _error_after(field, lambda: SynthConfig(**{field: value}))
    assert by_hyperparams == by_config
    # The one value each rule takes: 1.5 for the number rule, and for the
    # integer rules an integer too large for a float.
    taken = 1.5 if field == "radial_jitter" else int("9" * 401)
    assert (by_config is None) == (value == taken)


@pytest.mark.parametrize("seed", [True, math.nan, math.inf, -1, 1.5, "7"])
def test_train_and_generator_configs_describe_a_bad_seed_alike(seed):
    with pytest.raises(TrainingError) as by_train:
        train(separable_samples(40, seed=23), kind="logreg", seed=seed)
    with pytest.raises(ValueError) as by_config:
        SynthConfig(seed=seed)
    assert str(by_train.value) == str(by_config.value)


def _equal_but_distinct(part):
    """Two equal but distinct instances of an array-holding type."""
    if part == "table":
        frames = generate_synthetic(SynthConfig(n_frames=3, seed=5)).frames
        return pairwise_deconstruct(frames), pairwise_deconstruct(frames)
    kind = {"scaling": "logreg", "model": "logreg", "tree": "trees"}.get(part, part)
    samples = separable_samples(40, seed=23)
    a, b = train(samples, kind=kind, seed=3), train(samples, kind=kind, seed=3)
    assert model_to_dict(a) == model_to_dict(b)
    if part == "model":
        return a, b
    if part == "scaling":
        return a.scaling, b.scaling
    if part == "tree":
        return a.params.trees[0], b.params.trees[0]
    return a.params, b.params


@pytest.mark.parametrize(
    "part, name",
    [
        ("model", "TrainedModel"),
        ("scaling", "FeatureScaling"),
        ("knn", "KnnParams"),
        ("logreg", "LogisticParams"),
        ("trees", "ForestParams"),
        ("tree", "TreeArrays"),
        ("table", "PairTable"),
    ],
)
def test_array_holders_compare_and_hash_by_identity(part, name):
    a, b = _equal_but_distinct(part)
    assert type(a).__name__ == name and type(b) is type(a)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(b) == hash(b)
    assert len({a, b, a}) == 2


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
        params = knn_mod.fit(pts, labels, {}, 0)
        k = int(rng.integers(1, n + 1))
        queries = rng.normal(size=(8, 2))
        got = knn_mod.scores(params, {"k": k}, queries)
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
        params = knn_mod.fit(pts, labels, {}, 0)
        k = int(rng.integers(1, n + 1))
        queries = rng.integers(-2, 3, size=(6, 2)).astype(np.float64)
        got = knn_mod.scores(params, {"k": k}, queries)
        for qi, q in enumerate(queries):
            want = oracle_knn_score(pts, labels, q, k)
            assert math.isclose(got[qi], want, rel_tol=1e-12, abs_tol=1e-12), (trial, qi)


def reference_row_score(d2, labels, k):
    """Score one query given squared distances to every training point:
    the k first by (distance, label, index), votes summed in that order."""
    n = d2.shape[0]
    kth = min(k + 8, n) - 1
    cand = np.argpartition(d2, kth)[: kth + 1]
    order = np.lexsort((cand, labels[cand], d2[cand]))
    cand = cand[order]
    # Boundary tie spilling past the 8 extra neighbors: resort the full row.
    if kth + 1 < n and d2[cand[k - 1]] == d2[cand[-1]]:
        cand = np.lexsort((np.arange(n), labels, d2))
    sel = cand[:k]
    d2_sel = d2[sel]
    y_sel = labels[sel].astype(np.float64)
    if d2_sel[0] == 0.0:
        exact = d2_sel == 0.0
        return float(y_sel[exact].mean())
    w = 1.0 / d2_sel
    return float((w * y_sel).sum() / w.sum())


def brute_force_knn_scores(params, k, Xs):
    """Scores from every training point: the selection and summation of
    ``reference_row_score`` over full rows of squared distances."""
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
            out[start + i] = reference_row_score(d2[i], params.labels, k)
    return out


def assert_grid_matches_brute_force(pts, labels, queries, ks=(1, 3, 10)):
    params = knn_mod.fit(pts, labels, {}, 0)
    for k in ks:
        got = knn_mod.scores(params, {"k": k}, queries)
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
        got = knn_mod.scores(params, {"k": k}, queries)
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
    params = knn_mod.fit(pts, labels, {}, 0)
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
    assert knn_mod.scores(knn_mod.fit(pts, labels, {}, 0), {"k": 1}, query)[0] == 0.0
    assert_grid_matches_brute_force(pts, labels, query, ks=(1, 2, 16))


def test_knn_grid_matches_brute_force_when_k_reaches_n():
    rng = np.random.default_rng(25)
    pts = rng.normal(size=(15, 2))
    labels = rng.integers(0, 2, size=15).astype(np.uint8)
    assert_grid_matches_brute_force(pts, labels, rng.normal(size=(20, 2)) * 3, ks=(14, 15, 16, 100))


@pytest.fixture(scope="module")
def corpus_knn(corpus_frames):
    """A knn model trained on the criterion-5 training frames."""
    return train([s for f in corpus_frames for s in pairwise_deconstruct(f)], kind="knn", seed=0)


def test_knn_per_frame_calls_match_brute_force(corpus_knn):
    # The detector scores the pairs of one frame per call.
    frames = generate_synthetic(SynthConfig(n_frames=220, seed=9)).frames
    batches = [
        corpus_knn.scaling.apply([[s.distance, s.effort_angle] for s in pairwise_deconstruct(f)])
        for f in frames if len(f.agents) >= 2
    ][:200]
    assert len(batches) == 200
    params, k = corpus_knn.params, corpus_knn.hyperparams["k"]
    got = np.concatenate([knn_mod.scores(params, {"k": k}, b) for b in batches])
    assert np.array_equal(got, brute_force_knn_scores(params, k, np.concatenate(batches)))


def test_knn_per_frame_calls_finish_in_one_round(corpus_knn, monkeypatch):
    # The first window of a row holds about 4k points, which is enough for
    # the row's k-th neighbor almost always on criterion-5 evaluation frames.
    frames = [f for f in generate_synthetic(SynthConfig(n_frames=200, seed=202)).frames if len(f.agents) >= 2]
    real_round = knn_mod._round
    rounds = []

    def counting_round(*args):
        rounds[-1] += 1
        return real_round(*args)

    monkeypatch.setattr(knn_mod, "_round", counting_round)
    for frame in frames:
        rounds.append(0)
        build_relation_matrix(corpus_knn, frame)
    assert len(rounds) >= 190 and min(rounds) == 1
    assert rounds.count(1) >= 0.95 * len(rounds), np.bincount(rounds)


def reference_first_window(params, cell, target):
    """The first windows by counting the training points' cells: for each
    query cell, the first square of ``halves`` that holds ``target``."""
    cells = params._cells(params.points)
    last = np.array(params.shape) - 1
    lo, hi, held = [], [], []
    for c in cell:
        for h in params.halves:
            a, b = np.maximum(c - h, 0), np.minimum(c + h, last)
            count = int(np.count_nonzero(((cells >= a) & (cells <= b)).all(axis=1)))
            if count >= target:
                break
        lo.append(a)
        hi.append(b)
        held.append(count)
    return np.array(lo), np.array(hi), np.array(held)


def assert_first_windows_match_reference(pts, labels, queries, ks):
    """Scores equal brute force, and the first windows equal the reference."""
    params = knn_mod.fit(pts, labels, {}, 0)
    halves = params.halves
    assert halves[0] == 0 and halves[-1] >= max(params.shape) - 1
    assert (np.diff(halves) >= 1).all() and (halves[3:] <= 1.5 * halves[2:-1]).all()
    cell = params._cells(np.asarray(queries, dtype=np.float64))
    n = len(pts)
    for k in ks:
        target = min(knn_mod._FIRST_WINDOW * min(k, n), n)
        for got, want in zip(params._first(cell, target), reference_first_window(params, cell, target)):
            assert np.array_equal(got, want), k
    assert_grid_matches_brute_force(pts, labels, queries, ks=ks)
    return params


def _empty_cell_centers(params, count, rng):
    empty = np.flatnonzero(np.diff(params.starts) == 0)
    picked = rng.choice(empty, size=min(count, empty.size), replace=False)
    return params.origin + params.cell * (np.column_stack(divmod(picked, params.shape[1])) + 0.5)


def test_knn_first_window_from_empty_cells_sparse_tails_and_far_outside():
    rng = np.random.default_rng(40)
    tails = rng.standard_cauchy(size=(200, 2))
    pts = np.concatenate([rng.normal(scale=0.3, size=(3000, 2)), tails])
    labels = rng.integers(0, 2, size=len(pts)).astype(np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    queries = np.concatenate([
        _empty_cell_centers(params, 60, rng),
        tails[:60] + rng.normal(scale=0.5, size=(60, 2)),
        [[1e6, 0.0], [-1e6, 1e6], [0.0, -1e9], [1e150, 1e150], [-40.0, 0.3]],
    ])
    assert (np.diff(params.starts)[params._cells(queries[:60]) @ [params.shape[1], 1]] == 0).all()
    assert_first_windows_match_reference(pts, labels, queries, ks=(1, 10, 30))


def test_knn_first_window_on_a_one_cell_grid():
    rng = np.random.default_rng(41)
    pts = np.full((300, 2), 1.5)
    labels = rng.integers(0, 2, size=300).astype(np.uint8)
    queries = np.concatenate([[[1.5, 1.5], [1.5, 1.6], [-3.0, 2.0], [1e6, 1e6]], rng.normal(size=(20, 2))])
    params = assert_first_windows_match_reference(pts, labels, queries, ks=(1, 10, 300, 400))
    assert params.shape == (1, 1) and params.halves.tolist() == [0]


def test_knn_first_window_in_a_thin_box():
    rng = np.random.default_rng(42)
    line = rng.standard_cauchy(size=2000)
    labels = rng.integers(0, 2, size=2000).astype(np.uint8)
    for pts, thin in ((np.column_stack([line, np.full(2000, -0.4)]), 1), (np.column_stack([np.full(2000, 3.0), line]), 0)):
        queries = np.concatenate([pts[:40], pts[40:80] + rng.normal(size=(40, 2)), [[1e5, -1e5], [-50.0, 50.0]]])
        params = assert_first_windows_match_reference(pts, labels, queries, ks=(1, 10, 30))
        assert params.shape[thin] == 1 and params.shape[1 - thin] > 100


def test_knn_first_window_holds_every_point_when_k_reaches_a_quarter_of_n():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, size=40).astype(np.uint8)
    queries = np.concatenate([rng.normal(size=(20, 2)) * 3, [[100.0, -100.0]]])
    params = assert_first_windows_match_reference(pts, labels, queries, ks=(10, 39, 40, 41, 100))
    for k in (10, 40, 100):
        assert (params._first(params._cells(queries), min(knn_mod._FIRST_WINDOW * k, 40))[2] == 40).all()


def test_knn_first_window_on_a_cluster_far_denser_than_the_mean():
    rng = np.random.default_rng(44)
    center = np.array([2.0, -3.0])
    cluster = rng.normal(scale=1e-4, size=(2000, 2)) + center
    pts = np.concatenate([rng.uniform(-10.0, 10.0, size=(5000, 2)), cluster])
    labels = rng.integers(0, 2, size=len(pts)).astype(np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    per_cell = np.diff(params.starts)
    assert per_cell.max() > 100 * len(pts) / per_cell.size
    # The cells stay within a small multiple of the points.
    assert per_cell.size <= 3 * knn_mod._CELLS_PER_POINT * len(pts) + 1
    queries = np.concatenate([
        cluster[:40] + rng.normal(scale=1e-5, size=(40, 2)),
        center + rng.uniform(-5e-4, 5e-4, size=(40, 2)),
        center + rng.uniform(-0.2, 0.2, size=(40, 2)),
        _empty_cell_centers(params, 20, rng),
        rng.uniform(-12.0, 12.0, size=(40, 2)),
    ])
    assert_first_windows_match_reference(pts, labels, queries, ks=(1, 10, 40))


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_predict_batch_takes_an_empty_batch_and_a_single_row(kind):
    model = train(separable_samples(60, seed=3), kind=kind, seed=0)
    labels, scores = predict_batch(model, np.empty((0, 2)))
    assert labels.shape == scores.shape == (0,)
    labels, scores = predict_batch(model, [[1.5, 0.7]])
    assert scores.shape == (1,)
    assert (int(labels[0]), float(scores[0])) == predict(model, 1.5, 0.7)
    if kind == "knn":
        for rows in (np.empty((0, 2)), model.scaling.apply([[1.5, 0.7]])):
            got = knn_mod.scores(model.params, {"k": 10}, rows)
            assert np.array_equal(got, brute_force_knn_scores(model.params, 10, rows))


def test_knn_rows_resolving_in_different_rounds_match_brute_force(monkeypatch):
    rng = np.random.default_rng(26)
    blob = rng.normal(scale=0.02, size=(600, 2)) + [1.0, -0.5]
    pts = np.concatenate([rng.normal(size=(3000, 2)), blob])
    labels = rng.integers(0, 2, size=len(pts)).astype(np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    densest = np.argmax(np.diff(params.starts))
    corner = params.origin + params.cell * np.array(divmod(densest, params.shape[1]))
    queries = np.concatenate([
        rng.normal(size=(200, 2)),
        rng.normal(size=(40, 2)) * 30.0,
        [[40.0, 0.0], [-40.0, 0.3], [0.1, 300.0], [1e6, -1e6]],
        corner + rng.uniform(0.0, 1.0, size=(50, 2)) * params.cell,
    ])
    queries = queries[rng.permutation(len(queries))]
    real_round = knn_mod._round
    rounds = {}  # query row -> [rounds it went through, certified]

    def counting_round(params, k, q, lo, hi, count):
        score, done, reach = real_round(params, k, q, lo, hi, count)
        for row, ok in zip(map(tuple, q), done.tolist()):
            seen = rounds.setdefault(row, [0, False])
            assert not seen[1], row
            seen[0] += 1
            seen[1] = ok
        return score, done, reach

    monkeypatch.setattr(knn_mod, "_round", counting_round)
    for k in (1, 10, 30):
        rounds.clear()
        got = knn_mod.scores(params, {"k": k}, queries)
        assert np.array_equal(got, brute_force_knn_scores(params, k, queries)), k
        # Most rows resolve in the first round, the rest in the second: the
        # square a row's bound reaches certifies it.
        assert len(rounds) == len(queries) and all(ok for _, ok in rounds.values()), k
        taken = np.bincount([n for n, _ in rounds.values()])
        assert taken.size == 3 and 0 < taken[2] < taken[1], (k, taken)


def test_knn_batch_of_one_chunk_plus_one_row_matches_brute_force():
    rng = np.random.default_rng(27)
    pts = rng.uniform(-5.0, 5.0, size=(3000, 2))
    labels = rng.integers(0, 2, size=3000).astype(np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    # Rows in one cell share its first window, so a chunk holds a fixed
    # number of them.
    cell = np.array(params.shape) // 2
    count = int(params._first(cell[None], knn_mod._FIRST_WINDOW * 10)[2][0])
    per_chunk = len(knn_mod._chunks(np.full(10**6, count))[0])
    queries = params.origin + (cell + rng.uniform(0.05, 0.95, size=(per_chunk + 1, 2))) * params.cell
    assert (params._cells(queries) == cell).all()
    parts = knn_mod._chunks(np.full(len(queries), count))
    assert [len(p) for p in parts] == [per_chunk, 1]
    assert_grid_matches_brute_force(pts, labels, queries, ks=(10,))


def test_knn_ties_at_the_kth_distance_straddling_the_first_window():
    # On a lattice, rings of points lie at one distance from a query. When
    # the ring at the k-th distance has points inside and outside the 3 x 3
    # window of the query's cell, the label and index tie-break must see
    # the whole ring.
    side = np.arange(-10, 11, dtype=np.float64)
    pts = np.array([(x, y) for x in side for y in side])
    labels = np.random.default_rng(28).integers(0, 2, size=len(pts)).astype(np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    cells = params._cells(pts)
    straddled = 0
    for q in ([0.5, 0.5], [0.0, 0.5], [1.5, -2.5], [-3.0, 2.0]):
        d2 = (q[0] - pts[:, 0]) ** 2 + (q[1] - pts[:, 1]) ** 2
        inside = (np.abs(cells - params._cells(np.array([q]))[0]) <= 1).all(axis=1)
        for value in np.unique(d2):
            ring = d2 == value
            if inside[ring].all() or not inside[ring].any():
                continue
            closer = int(np.count_nonzero(d2 < value))
            ks = sorted({closer + 1, closer + int(ring.sum()) - 1})
            assert_grid_matches_brute_force(pts, labels, [q], ks=ks)
            straddled += 1
    assert straddled >= 8


def test_knn_conflicting_duplicates_score_the_mean_of_their_labels():
    rng = np.random.default_rng(29)
    spots = rng.uniform(-3.0, 3.0, size=(40, 2))
    copies = np.repeat(spots, rng.integers(2, 6, size=40), axis=0)
    pts = np.concatenate([rng.uniform(-3.0, 3.0, size=(1000, 2)), copies])
    labels = rng.integers(0, 2, size=len(pts)).astype(np.uint8)
    shuffle = rng.permutation(len(pts))
    pts, labels = pts[shuffle], labels[shuffle]
    # Exact and inexact rows in one call.
    queries = np.concatenate([spots, rng.uniform(-3.0, 3.0, size=(40, 2))])
    assert_grid_matches_brute_force(pts, labels, queries, ks=(1, 3, 10))
    means = np.array([labels[(pts == s).all(axis=1)].mean() for s in spots])
    assert ((means > 0.0) & (means < 1.0)).any()
    assert np.array_equal(knn_mod.scores(knn_mod.fit(pts, labels, {}, 0), {"k": 10}, spots), means)


def test_knn_scores_non_finite_rows_as_nan():
    rng = np.random.default_rng(30)
    params = knn_mod.fit(rng.normal(size=(200, 2)), rng.integers(0, 2, size=200).astype(np.uint8), {}, 0)
    rows = np.array([[0.1, 0.2], [np.nan, 0.0], [0.0, np.inf], [-0.3, 0.5]])
    got = knn_mod.scores(params, {"k": 10}, rows)
    assert np.isnan(got[1:3]).all()
    assert np.array_equal(got[[0, 3]], brute_force_knn_scores(params, 10, rows[[0, 3]]))


def test_knn_self_accuracy_is_below_one_with_conflicting_duplicates():
    # Each distinct training point is its own exact match, but copies of
    # one point with different labels all score their mean label.
    conflicting = [
        PairSample(id_a=1000 + i, id_b=2000 + i, distance=1.0, effort_angle=1.0, label=label)
        for i, label in enumerate((1, 0, 0))
    ]
    samples = separable_samples(200, seed=5) + conflicting
    model = train(samples, kind="knn", seed=0)
    assert pairwise_accuracy(model, samples) == 202 / 203


def test_knn_exact_match_dominates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    labels = np.array([1, 0, 0], dtype=np.uint8)
    params = knn_mod.fit(pts, labels, {}, 0)
    # Two exact matches with opposite labels average to 0.5.
    assert knn_mod.scores(params, {"k": 3}, [[0.0, 0.0]])[0] == 0.5


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


def reference_best_split(X, y, min_leaf):
    """Lowest weighted-Gini split of rows laid out one by one: each feature
    argsorted at the node, the first minimum kept."""
    n = y.shape[0]
    best_score = np.inf
    best = None
    sizes_l = np.arange(1, n, dtype=np.float64)
    sizes_r = n - sizes_l
    for f in range(X.shape[1]):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        pos_l = np.cumsum(y[order]).astype(np.float64)[:-1]
        total_pos = float(y.sum())
        valid = (xs_sorted[1:] > xs_sorted[:-1]) & (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
        if not valid.any():
            continue
        pos_r = total_pos - pos_l
        gini_l = 1.0 - (pos_l / sizes_l) ** 2 - ((sizes_l - pos_l) / sizes_l) ** 2
        gini_r = 1.0 - (pos_r / sizes_r) ** 2 - ((sizes_r - pos_r) / sizes_r) ** 2
        score = (sizes_l * gini_l + sizes_r * gini_r) / n
        score[~valid] = np.inf
        i = int(np.argmin(score))
        if score[i] < best_score:
            threshold = 0.5 * (xs_sorted[i] + xs_sorted[i + 1])
            left_mask = xs <= threshold
            if left_mask.sum() != i + 1:
                threshold = xs_sorted[i]
                left_mask = xs <= threshold
            best_score = float(score[i])
            best = (f, float(threshold), left_mask)
    return best


def reference_grow(X, y, max_depth, min_leaf):
    """A tree grown depth first on rows laid out one by one, the right
    child popped first, node values as ``y[idx].mean()``."""
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(val):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(val)
        return len(feature) - 1

    root = new_node(float(y.mean()))
    stack = [(root, np.arange(y.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        pure = bool((ys == ys[0]).all())
        if pure or (max_depth is not None and depth >= max_depth) or idx.shape[0] < 2 * min_leaf:
            continue
        split = reference_best_split(X[idx], ys, min_leaf)
        if split is None:
            continue
        f, thr, left_mask = split
        idx_l = idx[left_mask]
        idx_r = idx[~left_mask]
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node(float(y[idx_l].mean()))
        right[node] = new_node(float(y[idx_r].mean()))
        stack.append((left[node], idx_l, depth + 1))
        stack.append((right[node], idx_r, depth + 1))
    return _tree(feature, threshold, left, right, value)


def reference_fit(Xs, y, seed, n_trees, max_depth, min_leaf, bootstrap):
    """Bagged trees grown on the drawn rows themselves, duplicates included."""
    n = y.shape[0]
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        idx = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n)
        trees.append(reference_grow(Xs[idx], y[idx], max_depth, min_leaf))
    return trees


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_fit_matches_reference(Xs, y, **hyperparams):
    hyperparams = {
        "seed": 0, "n_trees": 3, "max_depth": 12, "min_leaf": 5, "bootstrap": True, **hyperparams
    }
    got = trees_mod.fit(Xs, y, hyperparams, hyperparams["seed"]).trees
    want = reference_fit(Xs, y, **hyperparams)
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(g, name), getattr(w, name)), (t, name)
            assert getattr(g, name).dtype == getattr(w, name).dtype, (t, name)
    return got


def _split(X, y, counts, min_leaf):
    """trees._best_split on the rows of X, row r counted counts[r] times:
    (feature, threshold, rows on the left) or None, and the sorted order."""
    cols = np.ascontiguousarray(X.T)
    order = np.argsort(cols, axis=1, kind="stable")
    ws = trees_mod._Workspace(*cols.shape)
    got = trees_mod._best_split(cols, counts, counts * y, order, min_leaf, ws)
    return (None if got is None else got[:3]), order


def test_best_split_achieves_oracle_minimum():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, 2)).round(1)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        min_leaf = int(rng.integers(1, 4))
        got, order = _split(X, y, np.ones(n, dtype=np.int64), min_leaf)
        want = oracle_best_split_score(X, y, min_leaf)
        if got is None:
            assert want == math.inf, trial
            continue
        f, thr, n_left = got
        left_mask = X[:, f] <= thr
        nl, nr = int(left_mask.sum()), int(n - left_mask.sum())
        assert nl >= min_leaf and nr >= min_leaf

        def gini(mask):
            p = y[mask].mean()
            return 1.0 - p * p - (1.0 - p) ** 2

        score = (nl * gini(left_mask) + nr * gini(~left_mask)) / n
        assert math.isclose(score, want, rel_tol=1e-9, abs_tol=1e-12), trial
        assert np.array_equal(np.sort(order[f, :n_left]), np.flatnonzero(left_mask))


def test_best_split_counts_each_row_as_its_copies():
    rng = np.random.default_rng(24)
    for trial in range(60):
        n = int(rng.integers(3, 20))
        X = rng.normal(size=(n, 2)).round(1)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        counts = rng.integers(1, 4, size=n)
        min_leaf = int(rng.integers(1, 5))
        got, order = _split(X, y, counts, min_leaf)
        copies = np.repeat(np.arange(n), counts)
        want = reference_best_split(X[copies], y[copies], min_leaf)
        if want is None:
            assert got is None, trial
            continue
        f, thr, n_left = got
        assert (f, thr) == want[:2], trial
        assert np.array_equal(np.sort(order[f, :n_left]), np.flatnonzero(X[:, f] <= thr)), trial


def test_best_split_returns_the_copies_and_positives_on_the_left():
    rng = np.random.default_rng(27)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        X = rng.normal(size=(n, 2)).round(1)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        counts = rng.integers(1, 4, size=n)
        pos = counts * y
        cols = np.ascontiguousarray(X.T)
        order = np.argsort(cols, axis=1, kind="stable")
        got = trees_mod._best_split(
            cols, counts, pos, order, int(rng.integers(1, 4)), trees_mod._Workspace(2, n))
        if got is None:
            continue
        f, _, n_rows_l, n_l, n_pos_l = got
        rows_l = order[f, :n_rows_l]
        assert (n_l, n_pos_l) == (counts[rows_l].sum(), pos[rows_l].sum()), trial
        assert type(n_l) is int and type(n_pos_l) is int


def _poisoned_workspace(n_features, n):
    """A workspace whose every buffer holds values that would change a
    split if any of them were read before being written."""
    ws = trees_mod._Workspace(n_features, n)
    for buf, junk in ((ws.order, n - 1), (ws.pos, 10**6), (ws.ints, 10**6),
                      (ws.floats, -1.0), (ws.bools, True)):
        buf.fill(junk)
    ws.floats[:, ::3] = np.nan
    return ws


def test_growth_ignores_stale_workspace_contents():
    rng = np.random.default_rng(28)
    Xs = rng.normal(size=(300, 2)).round(2)
    y = rng.integers(0, 2, size=300).astype(np.uint8)
    cols = np.ascontiguousarray(Xs.T)
    order = np.argsort(cols, axis=1, kind="stable")
    counts = np.ones(y.shape[0], dtype=np.intp)
    want = reference_grow(Xs, y, max_depth=None, min_leaf=1)
    # One workspace for both trees: the second starts on what the first left.
    ws = _poisoned_workspace(*cols.shape)
    for _ in range(2):
        got = trees_mod._grow(cols, y, counts, order, max_depth=None, min_leaf=1, ws=ws)
        assert got.feature.shape[0] > 50
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # A small node's split read from buffers a large one filled first.
    big, small = _split(Xs, y, counts, 1), _split(Xs[:9], y[:9], counts[:9], 1)
    ws = _poisoned_workspace(*cols.shape)
    trees_mod._best_split(cols, counts, counts * y, big[1], 1, ws)
    small_cols = np.ascontiguousarray(Xs[:9].T)
    again = trees_mod._best_split(small_cols, counts[:9], counts[:9] * y[:9], small[1], 1, ws)
    assert again[:3] == small[0]


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
    cols = np.ascontiguousarray(X.T)
    bootstrap = np.bincount(rng.integers(0, 200, size=200), minlength=200)
    for counts in (np.ones(200, dtype=np.int64), bootstrap):
        order = np.argsort(cols, axis=1, kind="stable")
        ws = trees_mod._Workspace(*cols.shape)
        tree = trees_mod._grow(cols, y, counts, order, max_depth=None, min_leaf=min_leaf, ws=ws)
        # Walk training points down the tree; every split side must hold >= min_leaf.
        reached = {0: np.flatnonzero(counts)}
        for node in range(len(tree.feature)):
            idx = reached.get(node)
            if idx is None or tree.feature[node] < 0:
                continue
            go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
            left_idx, right_idx = idx[go_left], idx[~go_left]
            assert counts[left_idx].sum() >= min_leaf and counts[right_idx].sum() >= min_leaf, node
            reached[tree.left[node]] = left_idx
            reached[tree.right[node]] = right_idx


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


def _noisy_samples(n, seed):
    rng = random.Random(seed)
    rows = [(rng.uniform(0, 5), rng.uniform(0, 6), int(rng.random() < 0.3)) for _ in range(n)]
    return make_samples(rows)


def test_concurrent_trees_training_matches_sequential_fits():
    sets = [_noisy_samples(3000, seed=30), _noisy_samples(1700, seed=31)]
    want = [model_to_dict(train(samples, kind="trees", seed=1)) for samples in sets]
    got = [None, None]

    def run(i):
        got[i] = model_to_dict(train(sets[i], kind="trees", seed=1))

    workers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.fixture(scope="module")
def corpus_frames():
    """The criterion-5 training frames: 2000 frames, about 65k pairs."""
    return generate_synthetic(SynthConfig(n_frames=2000, seed=7)).frames


def _standardized(frames):
    X, y = samples_to_arrays([s for f in frames for s in pairwise_deconstruct(f)])
    return fit_scaling(X).apply(X), y


def test_growth_matches_reference_on_a_corpus_sized_forest(corpus_frames):
    Xs, y = _standardized(corpus_frames)
    assert y.shape[0] >= 60_000
    assert_fit_matches_reference(Xs, y, **DEFAULT_HYPERPARAMS["bagged_trees"])


def test_growth_of_different_sizes_back_to_back_matches_the_reference(corpus_frames):
    big_X, big_y = _standardized(corpus_frames)
    rng = np.random.default_rng(29)
    small_X = rng.normal(size=(200, 2))
    small_y = rng.integers(0, 2, size=200).astype(np.uint8)
    assert big_y.shape[0] >= 60_000
    hp = {"seed": 3, "n_trees": 2, "max_depth": 12, "min_leaf": 5, "bootstrap": True}
    want_big = reference_fit(big_X, big_y, **hp)
    # The small fit grows to pure leaves, so its deep nodes reuse only the
    # fronts of buffers that its own root filled.
    deep = dict(hp, max_depth=None, min_leaf=1)
    want_small = reference_fit(small_X, small_y, **deep)
    for X, y, params, want in ((big_X, big_y, hp, want_big), (small_X, small_y, deep, want_small),
                               (big_X, big_y, hp, want_big)):
        got = trees_mod.fit(X, y, params, params["seed"]).trees
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(g, name), getattr(w, name)), name
                assert getattr(g, name).dtype == getattr(w, name).dtype, name
    assert max(t.feature.shape[0] for t in want_small) > 20


def test_growth_matches_reference_across_hyperparameters():
    Xs, y = _standardized(generate_synthetic(SynthConfig(n_frames=120, seed=25)).frames)
    assert_fit_matches_reference(Xs, y, bootstrap=False, n_trees=1)
    for min_leaf in (1, 50):
        for max_depth in (None, 1):
            assert_fit_matches_reference(Xs, y, seed=min_leaf, min_leaf=min_leaf, max_depth=max_depth)
    assert_fit_matches_reference(Xs, y, max_depth=None, min_leaf=1, bootstrap=False, n_trees=1)


def test_growth_matches_reference_on_shuffled_rows_and_heavy_ties():
    Xs, y = _standardized(generate_synthetic(SynthConfig(n_frames=120, seed=26)).frames)
    perm = np.random.default_rng(26).permutation(y.shape[0])
    assert not (np.diff(Xs[perm, 0]) >= 0).all()
    assert_fit_matches_reference(Xs[perm], y[perm], n_trees=4, max_depth=None, min_leaf=2)
    tied = Xs.round(1)
    assert len(np.unique(tied[:, 0])) < 60
    assert_fit_matches_reference(tied, y, n_trees=4)
    assert_fit_matches_reference(tied[perm], y[perm], n_trees=4, max_depth=None, min_leaf=1)


def test_growth_matches_reference_when_the_midpoint_rounds_onto_the_upper_value():
    lower = np.nextafter(1.0, 2.0)
    upper = np.nextafter(lower, 2.0)
    assert 0.5 * (lower + upper) == upper
    x = np.array([0.0] * 4 + [lower] * 6 + [upper] * 6 + [3.0] * 4)
    X = np.column_stack([x, np.zeros_like(x)])
    y = np.array([0] * 10 + [1] * 10, dtype=np.uint8)
    tree = assert_fit_matches_reference(X, y, n_trees=1, bootstrap=False, min_leaf=1)[0]
    assert tree.threshold[0] == lower
    assert_fit_matches_reference(X, y, n_trees=8, min_leaf=1)


def test_growth_matches_reference_when_a_draw_holds_one_class():
    X = np.column_stack([np.arange(21.0), np.arange(21.0)[::-1] % 7])
    y = np.array([0] * 20 + [1], dtype=np.uint8)
    trees = assert_fit_matches_reference(X, y, n_trees=10, min_leaf=1)
    bare = [t for t in trees if t.feature.shape[0] == 1]
    assert bare and all(t.value[0] == 0.0 for t in bare)


def reference_forest_scores(params, Xs):
    """Scores from walking each tree on its own, rows dropping out as they
    reach a leaf; leaf values summed in tree order as ``trees.scores``
    sums them."""
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    total = np.zeros(Xs.shape[0], dtype=np.float64)
    for tree in params.trees:
        node = np.zeros(Xs.shape[0], dtype=np.int32)
        while True:
            feat = tree.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                break
            cur = node[active]
            go_left = Xs[active, feat[active]] <= tree.threshold[cur]
            node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        total += tree.value[node]
    return total / len(params.trees)


def same_bits(a, b):
    """Equal float64 arrays, -0.0 told from +0.0 and NaN equal to itself."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def walking_forest(params):
    """The same trees with no lookup table: a cell budget of 0 a node."""
    saved = trees_mod._CELLS_PER_NODE
    trees_mod._CELLS_PER_NODE = 0
    try:
        forest = trees_mod.ForestParams(trees=params.trees)
    finally:
        trees_mod._CELLS_PER_NODE = saved
    assert forest.table is None
    return forest


def assert_fused_matches_reference(params, queries):
    """The scores of ``params``, by its table if it has one, and by the
    fused walk, have the reference's bits."""
    want = reference_forest_scores(params, queries)
    assert same_bits(trees_mod.scores(params, {}, queries), want)
    assert same_bits(trees_mod.scores(walking_forest(params), {}, queries), want)


def table_cells(trees):
    """The cells the budget counts: each tree's table, (its distinct
    feature-0 thresholds + 1) x (its distinct feature-1 thresholds + 1),
    and a map per tree and feature over the forest's distinct thresholds."""
    own = [[set(t.threshold[t.feature == f].tolist()) for f in (0, 1)] for t in trees]
    grid = [set().union(*(o[f] for o in own)) for f in (0, 1)]
    return sum((len(a) + 1) * (len(b) + 1) for a, b in own) + len(trees) * (len(grid[0]) + len(grid[1]) + 2)


# Rows on the edges of IEEE arithmetic: signed zeros, infinities, NaN in
# either feature, and magnitudes far beyond any threshold.
_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]
SPECIAL_ROWS = np.array([[a, b] for a in _EDGES for b in _EDGES] + [[a, 0.5] for a in _EDGES])


def _tree(feature, threshold, left, right, value):
    return trees_mod.TreeArrays(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def _pair_features(frames):
    return np.array(
        [[s.distance, s.effort_angle] for f in frames for s in pairwise_deconstruct(f)]
    )


def test_fused_forest_matches_reference_on_synthetic_corpus(corpus_frames):
    frames = corpus_frames
    samples = [s for f in frames for s in pairwise_deconstruct(f)]
    assert len(samples) >= 60_000
    model = train(samples, kind="trees", seed=0)
    assert model.params.table is not None
    # The evaluation frames of the benchmark's corpus workload at its seed 1.
    held_out = _pair_features(generate_synthetic(SynthConfig(n_frames=500, seed=2)).frames)
    training = _pair_features(frames)
    for X in (held_out, training):
        assert_fused_matches_reference(model.params, model.scaling.apply(X))
    # One row, and one block plus one row.
    block = 32768 // len(model.params.trees)
    assert_fused_matches_reference(model.params, model.scaling.apply(training[: block + 1]))
    assert_fused_matches_reference(model.params, model.scaling.apply(training[:1]))


def test_fused_forest_sends_queries_on_a_threshold_left():
    stump = _tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 1.0, 0.0])
    params = trees_mod.ForestParams(trees=(stump,))
    assert trees_mod.scores(params, {}, [[0.5, 9.0], [np.nextafter(0.5, 1.0), 9.0]]).tolist() == [1.0, 0.0]

    model = train(separable_samples(300, seed=14), kind="trees", seed=2)
    rng = np.random.default_rng(14)
    queries = []
    for tree in model.params.trees:
        for f, thr in zip(tree.feature.tolist(), tree.threshold.tolist()):
            if f >= 0:
                q = rng.normal(size=2)
                q[f] = thr
                queries.append(q)
                queries.append([thr, thr])
    assert_fused_matches_reference(model.params, np.array(queries))


def test_fused_forest_matches_reference_far_outside_the_training_box():
    model = train(separable_samples(300, seed=15), kind="trees", seed=1)
    far = np.array(
        [[1e6, -1e6], [-1e6, 1e6], [1e300, 1e300], [-1e300, -1e300], [0.0, 1e300], [-1e300, 0.0]]
    )
    queries = np.concatenate([far, np.random.default_rng(15).normal(size=(50, 2)) * 100.0])
    assert model.params.table is not None
    assert_fused_matches_reference(model.params, queries)


def test_fused_forest_matches_reference_on_hand_built_trees():
    leaf_root = _tree([-1], [0.0], [-1], [-1], [0.25])
    # Depth 3 down the right, a leaf at depth 1 on the left.
    deep = _tree(
        [1, -1, 0, -1, 1, -1, -1],
        [0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.0],
        [1, -1, 3, -1, 5, -1, -1],
        [2, -1, 4, -1, 6, -1, -1],
        [0.5, 0.9, 0.3, 0.7, 0.1, 0.6, 0.0],
    )
    stump = _tree([0, -1, -1], [-0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 1.0, 0.0])
    grid = np.array([[x, y] for x in np.linspace(-3, 3, 13) for y in np.linspace(-3, 3, 13)])
    forests = [
        ((leaf_root,), 0),
        ((leaf_root, stump), 1),
        ((leaf_root, deep), 3),
        ((deep, leaf_root, stump), 3),
        ((stump, deep, deep), 3),
    ]
    for trees, depth in forests:
        params = trees_mod.ForestParams(trees=trees)
        assert params.depth == depth and params.table is not None
        assert_fused_matches_reference(params, grid)
        assert_fused_matches_reference(params, np.concatenate([grid, SPECIAL_ROWS]))
    assert trees_mod.scores(trees_mod.ForestParams(trees=(leaf_root,)), {}, grid).tolist() == [0.25] * len(grid)
    # Values whose sum depends on the order of the additions, one row at a
    # time as well as in a batch.
    values = np.random.default_rng(18).random(30)
    params = trees_mod.ForestParams(trees=tuple(_tree([-1], [0.0], [-1], [-1], [v]) for v in values))
    for rows in (grid[:1], grid[1:2], grid[:5]):
        assert_fused_matches_reference(params, rows)
    with pytest.raises(ValueError, match="at least one tree"):
        trees_mod.ForestParams(trees=())


def test_fused_forest_sums_negative_zero_leaves_from_positive_zero():
    # A leaf value of -0.0 passes the load check (value >= 0). Summed from
    # +0.0, as the reference sums, leaves that are all -0.0 give +0.0;
    # array_equal takes -0.0 for 0.0, so the bits are compared.
    neg = _tree([-1], [0.0], [-1], [-1], [-0.0])
    stump = _tree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, -0.0, 0.75])
    rows = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-0.0, -0.0]])
    for trees in ((neg,), (neg, neg, neg), (neg, stump), (stump, neg, neg)):
        params = trees_mod.ForestParams(trees=trees)
        got = trees_mod.scores(params, {}, rows)
        assert_fused_matches_reference(params, rows)
        assert_fused_matches_reference(params, SPECIAL_ROWS)
    assert not np.signbit(got).any()


def test_fused_forest_matches_reference_without_a_depth_limit():
    rng = random.Random(16)
    rows = [(rng.uniform(0, 5), rng.uniform(0, 6), rng.randint(0, 1)) for _ in range(1500)]
    model = train(
        make_samples(rows),
        kind="trees",
        hyperparams={"n_trees": 7, "max_depth": None, "min_leaf": 1},
        seed=4,
    )
    assert model.params.depth > 12
    queries = np.random.default_rng(16).normal(size=(3000, 2)) * 2.0
    assert_fused_matches_reference(model.params, queries)
    assert_fused_matches_reference(model.params, model.scaling.apply([r[:2] for r in rows]))


def test_fused_forest_survives_the_model_document():
    model = train(separable_samples(300, seed=17), kind="trees", seed=6)
    clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    queries = np.random.default_rng(17).normal(size=(2000, 2)) * 2.0
    assert_fused_matches_reference(clone.params, queries)
    assert same_bits(trees_mod.scores(clone.params, {}, queries), trees_mod.scores(model.params, {}, queries))
    assert clone.params.depth == model.params.depth
    # The document holds no table; loading derives the same one.
    assert "table" not in json.dumps(model_to_dict(model))
    assert model.params.table is not None
    assert same_bits(clone.params.table, model.params.table)
    for got, want in zip(clone.params.grid, model.params.grid):
        assert same_bits(got, want)
    for got, want in zip(clone.params.cell, model.params.cell):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _around(values):
    """Each value and its nearest floats below and above."""
    values = np.asarray(sorted(set(values)), dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _threshold_rows(params):
    """Every pair of a feature-0 and a feature-1 value among the forest's
    thresholds, their float neighbours and the IEEE edge values."""
    per_feature = [
        np.concatenate([_around(np.concatenate([t.threshold[t.feature == f] for t in params.trees])), _EDGES])
        for f in (0, 1)
    ]
    x0, x1 = np.meshgrid(*per_feature, indexing="ij")
    return np.column_stack([x0.ravel(), x1.ravel()])


def test_forest_table_matches_reference_at_every_threshold_and_its_neighbours():
    rng = random.Random(19)
    noisy = make_samples(
        [(d, e, int(d + rng.gauss(0, 1) < 2.5)) for d, e in
         ((rng.uniform(0, 5), rng.uniform(0, 6)) for _ in range(300))]
    )
    model = train(noisy, kind="trees", seed=3, hyperparams={"n_trees": 4})
    deep = train(noisy, kind="trees", seed=5, hyperparams={"n_trees": 3, "max_depth": None, "min_leaf": 1})
    for params in (model.params, deep.params):
        assert params.table is not None
        rows = _threshold_rows(params)
        assert len(rows) > 1000
        assert_fused_matches_reference(params, rows)
        # One row at a time, as per-frame calls score.
        for row in rows[:: max(1, len(rows) // 200)]:
            assert same_bits(trees_mod.scores(params, {}, row), reference_forest_scores(params, row))


def test_forest_table_with_infinite_and_signed_zero_thresholds():
    # Hand-built forests may hold thresholds no document can: +-inf. NaN
    # then differs from +inf (only NaN goes right at x <= +inf), so the
    # cell above every threshold is walked with NaN.
    at_inf = _tree([0, -1, 1, -1, -1], [np.inf, 0.0, -np.inf, 0.0, 0.0],
                   [1, -1, 3, -1, -1], [2, -1, 4, -1, -1], [0.5, 0.25, 0.5, 0.75, 1.0])
    zeros = _tree([1, 0, -1, -1, -1], [-0.0, 0.0, 0.0, 0.0, 0.0],
                  [1, 2, -1, -1, -1], [4, 3, -1, -1, -1], [0.5, 0.5, 0.125, 0.375, 0.625])
    for trees in ((at_inf,), (zeros,), (at_inf, zeros), (zeros, at_inf, zeros)):
        params = trees_mod.ForestParams(trees=trees)
        assert params.table is not None
        assert_fused_matches_reference(params, _threshold_rows(params))
    got = trees_mod.scores(trees_mod.ForestParams(trees=(at_inf,)), {}, [[np.inf, 0.0], [np.nan, 0.0]])
    assert got.tolist() == [0.25, 1.0]


def test_forest_with_a_nan_threshold_walks():
    # x <= NaN is false for every x, which no cell of a sorted grid says.
    nan_stump = _tree([0, -1, -1], [np.nan, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.5, 1.0, 0.0])
    params = trees_mod.ForestParams(trees=(nan_stump,))
    assert params.table is None and params.grid is None and params.cell is None
    assert_fused_matches_reference(params, SPECIAL_ROWS)
    assert trees_mod.scores(params, {}, SPECIAL_ROWS).tolist() == [0.0] * len(SPECIAL_ROWS)


def _level_tree(depth, feature_of_level, thresholds):
    """A full binary tree of ``depth`` split levels in breadth-first order;
    level l splits on ``feature_of_level(l)``, node k of a feature taking
    ``thresholds[feature][k % len]``."""
    n = 2 ** (depth + 1) - 1
    feature = [-1] * n
    threshold = [0.0] * n
    seen = [0, 0]
    for node in range(2 ** depth - 1):
        f = feature_of_level(int(np.log2(node + 1)))
        feature[node] = f
        threshold[node] = thresholds[f][seen[f] % len(thresholds[f])]
        seen[f] += 1
    left = [2 * k + 1 if feature[k] >= 0 else -1 for k in range(n)]
    right = [2 * k + 2 if feature[k] >= 0 else -1 for k in range(n)]
    value = np.random.default_rng(depth).random(n).tolist()
    return _tree(feature, threshold, left, right, value)


def test_forest_just_over_the_cell_budget_walks_and_matches():
    # Ten split levels, 2047 nodes: eight levels on feature 0 with 255
    # distinct thresholds, two on feature 1 with u distinct thresholds.
    # One more distinct feature-1 threshold takes the table over budget.
    # The table holds 256 (u + 1) cells and the maps 256 + u + 1.
    budget = trees_mod._CELLS_PER_NODE * (2 ** 11 - 1)
    f0 = np.linspace(-3.0, 3.0, 255).tolist()

    def forest(u):
        f1 = np.linspace(-4.0, 4.0, u).tolist()
        tree = _level_tree(10, lambda level: 0 if level < 8 else 1, (f0, f1))
        return trees_mod.ForestParams(trees=(tree,))

    u = next(u for u in range(1, 769) if 257 * (u + 2) - 1 > budget)
    under, over = forest(u - 1), forest(u)
    assert table_cells(under.trees) <= budget < table_cells(over.trees)
    assert under.table is not None and over.table is None and over.grid is None
    rows = np.concatenate([np.random.default_rng(21).normal(size=(3000, 2)) * 3.0, SPECIAL_ROWS])
    assert_fused_matches_reference(under, rows)
    assert_fused_matches_reference(over, rows)
    assert same_bits(trees_mod.scores(over, {}, rows), reference_forest_scores(over, rows))


def _chain_document(splits, feature_of_split):
    """A trees model document of one tree: a chain of ``splits`` splits,
    each with a leaf on the left and the next split on the right."""
    n = 2 * splits + 1
    feature, threshold, left, right, value = [], [], [], [], []
    for k in range(splits):
        feature += [feature_of_split(k), -1]
        threshold += [float(k % 97) - 48.0 + k / splits, 0.0]
        left += [2 * k + 1, -1]
        right += [2 * k + 2, -1]
        value += [0.5, (k % 7) / 7.0]
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    value.append(1.0)
    assert len(feature) == n
    model = train(separable_samples(40, seed=22), kind="trees", seed=0, hyperparams={"n_trees": 1})
    doc = json.loads(json.dumps(model_to_dict(model)))
    doc["params"]["trees"] = [
        {"feature": feature, "threshold": threshold, "left": left, "right": right, "value": value}
    ]
    return doc


@pytest.mark.parametrize(
    "splits, feature_of_split",
    [(2000, lambda k: k % 2), (10000, lambda k: 0)],
    ids=["alternating", "one-feature"],
)
def test_forest_chain_document_loads_without_a_table(splits, feature_of_split):
    # An alternating chain's table would hold about splits**2 / 4 cells (1M,
    # 8 MB); a long chain on one feature fits the cells but would take
    # splits**2 steps to fill. Both load without a table, in memory linear
    # in the nodes, and score by the walk.
    import time
    import tracemalloc

    doc = _chain_document(splits, feature_of_split)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        model = model_from_dict(doc)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.params.table is None and model.params.depth == splits
    assert peak < 400 * (2 * splits + 1), peak
    assert seconds < 30.0, seconds
    rows = np.concatenate([np.random.default_rng(23).normal(size=(200, 2)) * 40.0, SPECIAL_ROWS])
    got = trees_mod.scores(model.params, {}, rows)
    assert same_bits(got, reference_forest_scores(model.params, rows))


def test_trees_document_with_a_node_of_two_parents_is_rejected():
    # 0 -> (1, 5), 1 -> (2, 3), 2 -> (4, 6), 5 -> (6, 7), 6 -> (8, 9): every
    # child follows its node, but node 6 is the child of nodes 2 and 5. Read
    # as a forest, the path 0, 1, 2, 6, 9 of the row (-0.5, -1.0) is one
    # step longer than the depth the second parent gives node 6, so the
    # walk and the table would stop at node 6 (0.5) short of leaf 9 (0.8).
    doc = _chain_document(1, lambda k: 0)
    doc["params"]["trees"] = [{
        "feature": [0, 1, 0, -1, -1, 1, 1, -1, -1, -1],
        "threshold": [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0],
        "left": [1, 2, 4, -1, -1, 6, 8, -1, -1, -1],
        "right": [5, 3, 6, -1, -1, 7, 9, -1, -1, -1],
        "value": [0.5, 0.5, 0.5, 0.1, 0.2, 0.5, 0.5, 0.3, 0.4, 0.8],
    }]
    with pytest.raises(ModelFormatError, match="exactly one split"):
        model_from_dict(doc)
    # The same tree with node 5's left child a leaf of its own loads, with
    # its true depth, and scores the row as leaf 9.
    tree = doc["params"]["trees"][0]
    for name, value in zip(tree, (-1, 0.0, -1, -1, 0.6)):
        tree[name].append(value)
    tree["left"][5] = 10
    model = model_from_dict(doc)
    assert model.params.depth == 4
    assert trees_mod.scores(model.params, {}, np.array([[-0.5, -1.0]])).tolist() == [0.8]


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


def reference_sigmoid(z):
    """The logistic function with a mask per sign, exp taken of -z or z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logreg_sigmoid_matches_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(27)
    z = np.concatenate([
        [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2],
        rng.normal(size=1000) * 40.0,
    ])
    got = logreg_mod._sigmoid(z)
    assert np.array_equal(got.view(np.uint64), reference_sigmoid(z).view(np.uint64))
    assert got[:6].tolist() == [1.0, 0.0, 0.5, 0.5, 1.0, 0.0]
    # Only a NaN's sign bit may differ.
    assert np.isnan(logreg_mod._sigmoid(np.array([np.nan, -np.nan]))).all()


def test_logreg_zero_weights_score_half():
    params = logreg_mod.LogisticParams(coef=np.zeros(3))
    assert logreg_mod.scores(params, {}, [[3.0, 1.0]])[0] == 0.5


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
    fitted = logreg_mod.fit(Xs, y, dict(l2=1e-4, epochs=2000, tol=1e-8), 0)
    assert logreg_mod.loss(fitted.coef, Xs, y, 1e-4) < logreg_mod.loss(np.zeros(3), Xs, y, 1e-4)


def reference_gradient_descent(Xs, y, l2, learning_rate, epochs, tol):
    """Full-batch gradient descent at a fixed rate from zero, with an early
    stop on a small gradient norm."""
    coef = np.zeros(3, dtype=np.float64)
    y = y.astype(np.float64)
    for _ in range(int(epochs)):
        g = logreg_mod.gradient(coef, Xs, y, l2)
        if float(np.linalg.norm(g)) < tol:
            break
        coef -= learning_rate * g
    return coef


def test_logreg_newton_reaches_the_optimum_on_a_corpus_sized_set(corpus_frames):
    Xs, y = _standardized(corpus_frames)
    hp = DEFAULT_HYPERPARAMS["logistic_regression"]
    fitted = logreg_mod.fit(Xs, y, hp, 0).coef
    descended = reference_gradient_descent(
        Xs, y, hp["l2"], learning_rate=0.1, epochs=hp["epochs"], tol=hp["tol"])
    assert logreg_mod.loss(fitted, Xs, y, hp["l2"]) <= logreg_mod.loss(descended, Xs, y, hp["l2"])
    assert np.linalg.norm(logreg_mod.gradient(fitted, Xs, y, hp["l2"])) < hp["tol"]
    assert np.array_equal(logreg_mod.fit(Xs, y, hp, 0).coef, fitted)
    # The stopping rule fires within 20 iterations.
    assert np.array_equal(logreg_mod.fit(Xs, y, dict(hp, epochs=20), 0).coef, fitted)


def finished_within(seconds, fn, *args, **kwargs):
    """fn's result, run in a daemon thread that must return within ``seconds``."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args, **kwargs)), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"{fn.__name__} still running after {seconds} s"
    assert out, f"{fn.__name__} raised"
    return out[0]


def _separable_standardized(seed):
    X, y = samples_to_arrays(separable_samples(200, seed=seed))
    return fit_scaling(X).apply(X), y


def _losses_by_epochs(Xs, y, l2, tol, epochs):
    return [logreg_mod.loss(logreg_mod.fit(Xs, y, dict(l2=l2, epochs=e, tol=tol), 0).coef, Xs, y, l2)
            for e in range(epochs)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logreg_fit_on_separable_data_without_penalty_stops_finite(seed):
    Xs, y = _separable_standardized(seed)
    epochs = DEFAULT_HYPERPARAMS["logistic_regression"]["epochs"]
    coef = finished_within(10.0, logreg_mod.fit, Xs, y, dict(l2=0.0, epochs=epochs, tol=0.0), 0).coef
    assert np.isfinite(coef).all()
    assert logreg_mod.loss(coef, Xs, y, 0.0) < logreg_mod.loss(np.zeros(3), Xs, y, 0.0)
    # It stops once no halved step lowers the loss, and the loss never rises.
    assert np.array_equal(logreg_mod.fit(Xs, y, dict(l2=0.0, epochs=100, tol=0.0), 0).coef, coef)
    losses = _losses_by_epochs(Xs, y, 0.0, 0.0, 60)
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_logreg_fit_halves_a_step_that_overshoots():
    # Seven points on which the full seventh Newton step raises the loss.
    Xs = np.array([[-0.295, -0.059], [0.764, 0.873], [-2.125, -1.532], [0.196, -0.938],
                   [-0.281, -0.251], [1.171, 0.204], [0.569, 1.703]])
    y = np.array([1, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
    coef = finished_within(10.0, logreg_mod.fit, Xs, y, dict(l2=1e-4, epochs=2000, tol=1e-8), 0).coef
    assert np.linalg.norm(logreg_mod.gradient(coef, Xs, y, 1e-4)) < 1e-8
    losses = _losses_by_epochs(Xs, y, 1e-4, 1e-8, 12)
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_logreg_trains_on_two_samples_without_penalty():
    # Two standardized samples make the Hessian singular.
    samples = make_samples([(1.0, 0.5, 1), (3.0, 2.5, 0)])
    model = finished_within(10.0, train, samples, kind="logreg", hyperparams={"l2": 0})
    assert np.isfinite(model.params.coef).all()
    assert pairwise_accuracy(model, samples) == 1.0


def test_logreg_fit_with_one_epoch_takes_one_newton_step():
    Xs, y = _separable_standardized(3)
    l2 = 1e-4
    coef = finished_within(10.0, logreg_mod.fit, Xs, y, dict(l2=l2, epochs=1, tol=1e-8), 0).coef
    # From zero every p(1 - p) is 1/4.
    A = np.column_stack((np.ones(len(y)), Xs))
    hessian = 0.25 * A.T @ A / len(y) + np.diag([0.0, l2, l2])
    step = -np.linalg.solve(hessian, logreg_mod.gradient(np.zeros(3), Xs, y, l2))
    t = coef[1] / step[1]
    assert any(math.isclose(t, 0.5**j, rel_tol=1e-9) for j in range(31))
    assert np.allclose(coef, t * step, rtol=1e-9, atol=1e-12)
    assert logreg_mod.loss(coef, Xs, y, l2) < logreg_mod.loss(np.zeros(3), Xs, y, l2)
    assert not np.array_equal(logreg_mod.fit(Xs, y, dict(l2=l2, epochs=2, tol=1e-8), 0).coef, coef)


def test_logreg_fit_with_zero_epochs_returns_zeros():
    Xs, y = _separable_standardized(4)
    coef = finished_within(10.0, logreg_mod.fit, Xs, y, dict(l2=1e-4, epochs=0, tol=1e-8), 0).coef
    assert np.array_equal(coef, np.zeros(3))


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


@contextmanager
def runtime_warnings_as_errors():
    """predict_batch's finiteness checks, not numpy warnings, report an
    overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_predict_rejects_inputs_that_overflow_the_scaling(kind):
    doc = model_to_dict(train(separable_samples(40, seed=8), kind=kind, seed=0))
    doc["scaling"]["std"] = [1e-300, 1.0]
    model = model_from_dict(doc)
    with runtime_warnings_as_errors():
        with pytest.raises(ValueError, match="finite, also once standardized"):
            predict(model, 1e10, 1.0)
    assert predict(model, float(doc["scaling"]["mean"][0]), 1.0)[1] >= 0.0


def test_predict_rejects_non_finite_scores():
    # Squared distances to a query this far overflow, and every vote weighs 0.
    model = train(separable_samples(40, seed=8), kind="knn", seed=0)
    with runtime_warnings_as_errors():
        with pytest.raises(ValueError, match="scores must be finite"):
            predict(model, 1e200, 1.0)


@pytest.mark.parametrize("kind", ["knn", "logreg"])
def test_predict_rejects_a_huge_scaling_mean_without_numpy_warnings(kind):
    doc = model_to_dict(train(separable_samples(40, seed=8), kind=kind, seed=0))
    doc["scaling"]["mean"] = [1e308, -1e308]
    model = model_from_dict(doc)
    queries = np.random.default_rng(34).uniform(-1.0, 7.0, size=(300, 2))
    with runtime_warnings_as_errors():
        with pytest.raises(ValueError, match="must be finite"):
            predict_batch(model, queries)


def test_logreg_logits_that_overflow_are_rejected_as_non_finite_scores():
    doc = model_to_dict(train(separable_samples(40, seed=8), kind="logreg", seed=0))
    doc["params"]["coef"] = [1e308] * 3
    model = model_from_dict(doc)
    # Both features far above or far below their means: the logit overflows
    # to +inf or -inf, which the sigmoid alone would score 1 or 0.
    with runtime_warnings_as_errors():
        with pytest.raises(ValueError, match="scores must be finite"):
            predict(model, 50.0, 6.0)
        with pytest.raises(ValueError, match="scores must be finite"):
            predict_batch(model, [[0.5, 0.5], [-50.0, -6.0]])


def test_logreg_scores_of_finite_logits_are_the_sigmoid_bit_for_bit():
    # Logits of up to +-2000, so that scores round to exactly 0 and 1 too.
    rng = np.random.default_rng(26)
    Xs = rng.uniform(-100.0, 100.0, size=(2000, 2))
    for coef in (np.array([0.3, -4.0, 2.5]), np.array([-14.2, -11.6, -4.1]), np.array([5.0, 20.0, 0.0])):
        params = logreg_mod.LogisticParams(coef=coef)
        want = logreg_mod._sigmoid(coef[0] + Xs @ coef[1:])
        got = logreg_mod.scores(params, {}, Xs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert {0.0, 1.0} <= set(got.tolist())


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


def test_logreg_document_with_a_learning_rate_loads_and_predicts_from_its_coef():
    # A document as written when logreg was fitted by gradient descent.
    doc = model_to_dict(train(separable_samples(40, seed=14), kind="logreg", seed=0))
    doc["hyperparams"] = {"l2": 1e-4, "learning_rate": 0.1, "epochs": 2000, "tol": 1e-8}
    coef = [-4.536799051204337, -4.076233658542516, -2.0950241577231036]
    doc["params"]["coef"] = coef
    model = model_from_dict(json.loads(json.dumps(doc)))
    assert model.hyperparams["learning_rate"] == 0.1
    q = np.random.default_rng(4).uniform(0, 7, size=(300, 2))
    want = logreg_mod.scores(logreg_mod.LogisticParams(coef=np.array(coef)), {}, model.scaling.apply(q))
    assert np.array_equal(predict_batch(model, q)[1], want)


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


def _load_and_score(doc, queries):
    """None when loading rejects the document; else its scores from
    ``predict_batch`` and from walking its node arrays tree by tree."""
    try:
        model = model_from_dict(doc)
    except ModelFormatError:
        return None
    forest = [
        trees_mod.TreeArrays(
            feature=np.asarray(t["feature"]),
            threshold=np.asarray(t["threshold"], dtype=np.float64),
            left=np.asarray(t["left"]),
            right=np.asarray(t["right"]),
            value=np.asarray(t["value"], dtype=np.float64),
        )
        for t in doc["params"]["trees"]
    ]
    walked = reference_forest_scores(trees_mod.ForestParams(trees=tuple(forest)),
                                     model.scaling.apply(queries))
    return predict_batch(model, queries)[1], walked


def _tree_document_mutations(trees, rng):
    """Edits (tree, field or None for the whole tree, node or None for the
    whole field, new value) of a model's tree documents, each with whether
    it keeps every prediction: non-finite and huge thresholds, children
    rewired backwards, forwards onto a node that already has a parent, onto
    their node or out of range, truncated node arrays, fields retyped to
    strings or lists, and a key added that loading does not read."""
    t = int(rng.integers(len(trees)))
    tree = trees[t]
    m = len(tree["feature"])
    nodes = np.arange(m)
    internal = int(rng.choice(nodes[np.array(tree["feature"]) >= 0]))
    inner = int(rng.choice(nodes[1:][np.array(tree["feature"][1:]) >= 0]))
    leaf = int(rng.choice(nodes[np.array(tree["feature"]) < 0]))
    cases = []
    for v in (math.nan, math.inf, -math.inf, 1e308, -1e308):
        cases += [((t, "threshold", leaf, v), True), ((t, "threshold", internal, v), False)]
    for name in ("left", "right"):
        taken = [j for j in range(internal + 1, m) if j != tree[name][internal]]
        cases += [
            ((t, name, inner, int(rng.integers(inner))), False),
            ((t, name, internal, int(rng.choice(taken))), False),
            ((t, name, internal, internal), False),
            ((t, name, internal, m + int(rng.integers(3))), False),
            ((t, name, internal, -2), False),
            ((t, name, leaf, leaf), False),
            ((t, name, leaf, int(rng.integers(m))), False),
        ]
    for name in TREE_ARRAYS:
        a = tree[name]
        cases += [
            ((t, name, None, a[: int(rng.integers(m))]), False),
            ((t, name, None, str(a)), False),
            ((t, name, None, [[v] for v in a]), False),
            ((t, name, internal, str(a[internal])), name in ("threshold", "value")),
            ((t, name, leaf, [a[leaf]]), False),
            ((t, name, leaf, None), False),
        ]
    k = int(rng.integers(1, m))
    cases.append(((t, None, None, {name: a[:k] for name, a in tree.items()}), False))
    cases.append(((t, None, None, list(tree.values())), False))
    cases.append(((t, "extra", None, tree["value"]), False))
    return cases


def test_mutated_trees_documents_are_rejected_or_predict_as_their_trees_say():
    # The roadmap asks that a mutated document be rejected or predict as the
    # original did. A document with a finite threshold moved on a split node
    # is a valid, different model, so an accepted document must predict as
    # its own trees, walked one by one, say; and as the original where the
    # edit changes no number a query can reach.
    model = train(_noisy_samples(400, seed=32), kind="trees", hyperparams={"n_trees": 3}, seed=0)
    text = json.dumps(model_to_dict(model))
    queries = np.random.default_rng(32).uniform(-1.0, 7.0, size=(300, 2))
    original = predict_batch(model, queries)[1]
    rng = np.random.default_rng(33)
    rejected = []
    for round_ in range(3):
        cases = _tree_document_mutations(json.loads(text)["params"]["trees"], rng)
        for (t, name, node, value), keeps_predictions in cases:
            doc = json.loads(text)
            trees = doc["params"]["trees"]
            added = name is not None and name not in trees[t]
            if name is None:
                trees[t] = value
            elif node is None:
                trees[t][name] = value
            else:
                trees[t][name][node] = value
            doc = json.loads(json.dumps(doc))
            outcome = finished_within(10.0, _load_and_score, doc, queries)
            rejected.append(outcome is None)
            if added:
                assert outcome is None, (round_, t, name)
            if outcome is None:
                continue
            got, walked = outcome
            where = (round_, t, name, node, value)
            assert np.isfinite(got).all(), where
            assert np.array_equal(got, walked), where
            if keeps_predictions:
                assert np.array_equal(got, original), where
    # Most edits break the document, numbers written as strings among them;
    # huge thresholds still load.
    assert 0 < rejected.count(False) < rejected.count(True)


def _load_and_predict(doc, queries):
    """("rejected", None) when loading raises ModelFormatError, ("scored",
    scores) when ``predict_batch`` returns, or ("not finite", message) when
    it raises ValueError."""
    try:
        model = model_from_dict(doc)
    except ModelFormatError:
        return "rejected", None
    try:
        return "scored", predict_batch(model, queries)[1]
    except ValueError as exc:
        return "not finite", str(exc)


def _flat_document_mutations(doc, rng):
    """Edits (path, new value) of a knn or logreg model document: NaN, inf
    and huge numbers in the points, coef and scaling, whole arrays scaled
    by 1e300, truncated points or labels, labels and k of the wrong value
    or type, rows of 1 or 3 values, fields retyped to strings or lists, and
    keys added that loading does not read."""
    params = doc["params"]
    arrays = [("scaling", "mean"), ("scaling", "std")]
    cases = []
    if "points" in params:
        points, labels = params["points"], params["labels"]
        n = len(points)
        i = int(rng.integers(n))
        spots = [("params", "points", i, int(rng.integers(2)))]
        cases += [
            (("params", "points"), [[v * 1e300 for v in row] for row in points]),
            (("params", "points"), [[-v * 1e300 for v in row] for row in points]),
            (("params", "points"), points[: int(rng.integers(n))]),
            (("params", "labels"), labels[: int(rng.integers(n))]),
            (("params", "points", i), points[i][:1]),
            (("params", "points", i), points[i] + [0.5]),
            (("params", "points"), [row[:1] for row in points]),
            (("params", "points"), [row + [0.5] for row in points]),
        ]
        cases += [(("params", "labels", i), v) for v in (2, True, "1")]
        cases += [(("hyperparams", "k"), v) for v in (0, 10**30, "10", [10])]
        arrays += [("params", "points"), ("params", "labels")]
    else:
        spots = [("params", "coef", int(rng.integers(3)))]
        cases.append((("params", "coef"), [v * 1e300 for v in params["coef"]]))
        arrays.append(("params", "coef"))
    spots += [("scaling", "mean", int(rng.integers(2))), ("scaling", "std", int(rng.integers(2)))]
    for v in (math.nan, math.inf, -math.inf, 1e308, -1e308):
        cases += [(path, v) for path in spots]
    for path in arrays:
        target = doc
        for key in path:
            target = target[key]
        cases += [(path, str(target)), (path, [[v] for v in target])]
    cases += [((name,), list(doc[name].values())) for name in ("params", "scaling")]
    # Keys that loading does not read.
    cases += [(("extra",), 1), (("scaling", "0"), [0.0, 1.0]), (("params", "0"), [])]
    return cases


def test_mutated_knn_and_logreg_documents_are_rejected_or_predict_finite_scores():
    # A mutated document must raise ModelFormatError on load, or predict
    # finite scores, or fail predict_batch's finiteness check; each case
    # within 10 s.
    queries = np.random.default_rng(34).uniform(-1.0, 7.0, size=(300, 2))
    rng = np.random.default_rng(35)
    outcomes = set()
    for kind in ("knn", "logreg"):
        text = json.dumps(model_to_dict(train(_noisy_samples(200, seed=34), kind=kind, seed=0)))
        for round_ in range(3):
            for path, value in _flat_document_mutations(json.loads(text), rng):
                doc = json.loads(text)
                target = doc
                for key in path[:-1]:
                    target = target[key]
                added = isinstance(target, dict) and path[-1] not in target
                target[path[-1]] = value
                doc = json.loads(json.dumps(doc))
                outcome, detail = finished_within(10.0, _load_and_predict, doc, queries)
                where = (kind, round_, path, value if np.isscalar(value) else type(value))
                outcomes.add(outcome)
                if added:
                    assert outcome == "rejected", where
                if outcome == "scored":
                    assert np.isfinite(detail).all(), where
                elif outcome == "not finite":
                    assert detail in (
                        "prediction inputs must be finite, also once standardized",
                        "prediction scores must be finite",
                    ), where
    assert outcomes == {"rejected", "scored", "not finite"}


@pytest.mark.parametrize(
    "kind, keys, value",
    [
        ("logreg", ("params", "coef"), ["1", "2", "3"]),
        ("logreg", ("seed",), True),
        ("trees", ("hyperparams", "n_trees"), "x"),
        ("knn", ("hyperparams", "junk"), 1),
        ("knn", ("scaling", "mean"), ["0.1", "0.2"]),
        # more of the same kinds
        ("logreg", ("seed",), "7"),
        ("logreg", ("seed",), 7.0),
        ("logreg", ("params", "coef", 0), True),
        ("logreg", ("hyperparams", "learning_rate"), "0.1"),
        ("logreg", ("hyperparams", "l2"), -1.0),
        ("trees", ("hyperparams", "bootstrap"), 1),
        ("trees", ("params", "trees", 0, "threshold", 0), "0.5"),
        ("trees", ("params", "trees", 0, "value", -1), False),
        ("trees", ("params", "trees", 0, "left", 0), True),
        ("knn", ("params", "points", 0, 1), "0.5"),
        ("knn", ("params", "points", 0), "01"),
        ("knn", ("params", "labels", 0), True),
        ("knn", ("hyperparams", "k"), "10"),
        ("knn", ("scaling", "std", 0), True),
    ],
)
def test_load_model_rejects_mistyped_numbers_and_hyperparameters(kind, keys, value):
    doc = json.loads(json.dumps(model_to_dict(train(separable_samples(40, seed=15), kind=kind, seed=0))))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ModelFormatError, match="malformed model document"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "kind, keys, where",
    [
        ("knn", ("junk",), "the model document"),
        ("knn", ("scaling", "0"), "scaling"),
        ("knn", ("params", "0"), "knn params"),
        ("trees", ("params", "n_trees"), "trees params"),
        ("trees", ("params", "trees", 0, "depth"), "a tree"),
        ("logreg", ("params", "learning_rate"), "logreg params"),
        ("logreg", ("scaling", "var"), "scaling"),
        ("logreg", ("version",), "the model document"),
    ],
)
def test_load_model_rejects_a_key_it_does_not_read(kind, keys, where):
    doc = model_to_dict(train(separable_samples(40, seed=15), kind=kind,
                              hyperparams={"n_trees": 2} if kind == "trees" else None, seed=0))
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 1
    with pytest.raises(ModelFormatError, match=f"unknown key '{keys[-1]}' in {where}"):
        model_from_dict(doc)


# A JSON integer of 401 digits: valid JSON, but too large for a float.
HUGE = int("9" * 401)


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("logreg", ("params", "coef", 1)),
        ("logreg", ("scaling", "mean", 0)),
        ("trees", ("scaling", "std", 1)),
        ("knn", ("params", "points", 2, 0)),
        ("trees", ("params", "trees", 0, "threshold", 0)),
        ("trees", ("params", "trees", 0, "value", -1)),
        ("logreg", ("hyperparams", "l2")),
        ("logreg", ("hyperparams", "tol")),
    ],
)
def test_load_model_rejects_a_number_too_large_for_a_float(tmp_path, kind, keys):
    model = train(separable_samples(40, seed=15), kind=kind, hyperparams=None, seed=0)
    doc = json.loads(json.dumps(model_to_dict(model)))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed model document: .*too large"):
        load_model(path)
