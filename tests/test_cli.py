"""End-to-end command-line workflows on temporary files."""

import json
import warnings

import numpy as np
import pytest

from fformation import datasets as datasets_mod, features as features_mod
from fformation.classifiers import load_model, model_to_dict, pairwise_accuracy, save_model, train
from fformation.cli import main
from fformation.core import validate_frame
from fformation.datasets import DatasetFormatError, load_canonical, save_canonical, split_frames
from fformation.features import pairwise_deconstruct
from fformation.synthetic import SynthConfig, load_synth_config, save_synth_config

import csv_exports


@pytest.fixture()
def corpus(tmp_path):
    """A small deterministic synthetic corpus written via the CLI."""
    config = SynthConfig(n_frames=40, seed=11)
    config_path = tmp_path / "config.json"
    save_synth_config(config, config_path)
    out = tmp_path / "corpus.json"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    return out


def test_synth_default_config_round_trips(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    assert main(["synth", "--out", str(out)]) == 0
    ds = load_canonical(out)
    assert len(ds) == 100
    err = capsys.readouterr().err
    assert "100 frames" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_frames", 1.5),
        ("n_frames", True),
        ("n_distractors", 1.5),
        ("max_retries", 2.5),
        ("seed", 1.5),
        ("groups_per_frame", [1.5, 2]),
        ("groups_per_frame", [1, True]),
    ],
)
def test_synth_config_counts_must_be_integers(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    with pytest.raises(DatasetFormatError, match=f"{field} must be"):
        load_synth_config(config)
    out = tmp_path / "corpus.json"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"group_clearance": NaN}', "group_clearance must be a finite number >= 0"),
        ('{"radial_jitter": true}', "radial_jitter must be a finite number >= 0"),
        ('{"area": [true, 5.0]}', "area must be two finite extents > 0"),
        ('{"area": [Infinity, 12]}', "area must be two finite extents > 0"),
        ('{"seed": -1}', "seed must be an integer >= 0"),
        ('{"group_size_distribution": {"2": "0.5"}}', "group_size_distribution must be"),
        ('{"group_size_distribution": {"2": true}}', "group_size_distribution must be"),
        ('{"group_size_distribution": {"2": NaN}}', "group_size_distribution must be"),
        ('{"group_size_distribution": {"1_0": 1.0}}',
         "group_size_distribution: expected an integer, got '1_0'"),
        ('{"tightness_mean_per_size": {"2": NaN}}', "tightness_mean_per_size must be"),
        pytest.param('{"radial_jitter": 1%s}' % ("0" * 400),
                     "radial_jitter: int too large to convert to float", id="radial_jitter-401-digits"),
        pytest.param('{"area": [1%s, 5]}' % ("0" * 400),
                     "area: int too large to convert to float", id="area-401-digits"),
        ('{"seed": 1.0}', "seed must be an integer >= 0, got 1.0"),
    ],
)
def test_synth_config_values_are_checked_per_field(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    named = f"{config}: {message}"
    with pytest.raises(DatasetFormatError) as caught:
        load_synth_config(config)
    assert str(caught.value).startswith(named)
    out = tmp_path / "corpus.json"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_synth_rejects_size_weights_whose_sum_overflows(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"group_size_distribution": {"2": 1e308, "3": 1e308}}', encoding="utf-8")
    out = tmp_path / "corpus.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {config}: group_size_distribution must have weights whose sum is finite, " \
                  f"got a sum of inf\n"
    assert not out.exists()


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["synth", "--out", str(a)]) == 0
    assert main(["synth", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_detect_evaluate_characterize_render(tmp_path, corpus, capsys):
    model = tmp_path / "model.json"
    rc = main(
        [
            "train",
            "--data",
            str(corpus),
            "--kind",
            "knn",
            "--split",
            "0.6",
            "--seed",
            "2",
            "--out",
            str(model),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "train_pairwise_accuracy:" in captured.out
    assert "test_pairwise_accuracy:" in captured.out
    assert model.exists()

    detections = tmp_path / "det.json"
    rc = main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(detections)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "frames/s" in captured.err
    assert captured.out == ""  # data goes to the file, diagnostics to stderr
    det_ds = load_canonical(detections)
    assert len(det_ds) == 40

    rc = main(
        ["evaluate", "--detections", str(detections), "--truth", str(corpus), "--tolerance", "2/3"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "precision:" in captured.out and "f1:" in captured.out

    table = tmp_path / "table.txt"
    chart = tmp_path / "chart.svg"
    rc = main(
        ["characterize", "--data", str(corpus), "--out", str(table), "--svg", str(chart)]
    )
    assert rc == 0
    assert table.read_text().startswith("source: truth")
    assert "size" in table.read_text()
    assert chart.read_text().startswith("<svg")

    scene = tmp_path / "scene.svg"
    rc = main(["render", "--data", str(corpus), "--frame", "0", "--svg", str(scene)])
    assert rc == 0
    assert "agent-wedge" in scene.read_text()


def test_train_is_deterministic(tmp_path, corpus):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["train", "--data", str(corpus), "--kind", "logreg", "--seed", "7"]
    assert main(args + ["--out", str(m1)]) == 0
    assert main(args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_train_prints_and_writes_what_training_on_pair_samples_gives(tmp_path, corpus, capsys, kind):
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(corpus), "--kind", kind, "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    train_frames, test_frames = split_frames(load_canonical(corpus).frames, 0.6)
    train_samples = [s for f in train_frames for s in pairwise_deconstruct(f)]
    test_samples = [s for f in test_frames for s in pairwise_deconstruct(f)]
    model = train(train_samples, kind=kind, seed=3)
    assert printed == (
        f"train_pairwise_accuracy: {pairwise_accuracy(model, train_samples):.4f}\n"
        f"test_pairwise_accuracy: {pairwise_accuracy(model, test_samples):.4f}\n"
    )
    assert out.read_text(encoding="utf-8") == json.dumps(model_to_dict(model))


def test_written_files_load_and_save_to_the_same_bytes(tmp_path, corpus):
    model, detected = tmp_path / "m.json", tmp_path / "d.json"
    assert main(["train", "--data", str(corpus), "--kind", "trees", "--out", str(model)]) == 0
    assert main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(detected)]) == 0
    for path, load, save in ((corpus, load_canonical, save_canonical),
                             (detected, load_canonical, save_canonical),
                             (model, load_model, save_model)):
        again = tmp_path / "again.json"
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes(), path


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_train_rejects_a_negative_seed(tmp_path, corpus, capsys, kind):
    out = tmp_path / "m.json"
    args = ["train", "--data", str(corpus), "--kind", kind, "--seed", "-1", "--out", str(out)]
    assert main(args) == 1
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_split_one(tmp_path, corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "train",
                "--data",
                str(corpus),
                "--kind",
                "knn",
                "--split",
                "1.0",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
    assert exc.value.code == 2
    assert "split must be in (0, 1)" in capsys.readouterr().err


def test_strict_tolerance_never_beats_tolerant(tmp_path, corpus, capsys):
    model = tmp_path / "model.json"
    detections = tmp_path / "det.json"
    assert main(["train", "--data", str(corpus), "--kind", "knn", "--out", str(model)]) == 0
    assert (
        main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(detections)])
        == 0
    )
    capsys.readouterr()

    def f1_at(tol):
        assert (
            main(
                [
                    "evaluate",
                    "--detections",
                    str(detections),
                    "--truth",
                    str(corpus),
                    "--tolerance",
                    tol,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        return float(next(line for line in out.splitlines() if line.startswith("f1:")).split()[1])

    assert f1_at("1.0") <= f1_at("0.6667") + 1e-12


def test_characterize_detections_source_label(tmp_path, corpus, capsys):
    model = tmp_path / "model.json"
    detections = tmp_path / "det.json"
    assert main(["train", "--data", str(corpus), "--kind", "knn", "--out", str(model)]) == 0
    assert (
        main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(detections)])
        == 0
    )
    capsys.readouterr()
    assert main(["characterize", "--data", str(detections), "--use", "detections"]) == 0
    assert capsys.readouterr().out.startswith("source: detections")


def test_error_paths_return_nonzero(tmp_path, corpus, capsys):
    # missing model file
    rc = main(
        ["detect", "--model", str(tmp_path / "nope.json"), "--data", str(corpus), "--out", "x"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # frame id not present
    rc = main(
        ["render", "--data", str(corpus), "--frame", "999", "--svg", str(tmp_path / "s.svg")]
    )
    assert rc == 1
    assert "no frame" in capsys.readouterr().err

    # corpus without ground truth cannot train
    bare = tmp_path / "bare.json"
    doc = {
        "schema_version": 1,
        "frames": [
            {
                "frame_id": k,
                "agents": [
                    {"id": 1, "x": 0.0, "y": 0.0, "body_theta": 0.0},
                    {"id": 2, "x": 1.0, "y": 0.0, "body_theta": 3.0},
                ],
            }
            for k in range(5)
        ],
    }
    bare.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(
        ["train", "--data", str(bare), "--kind", "knn", "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert "no ground-truth groups" in capsys.readouterr().err

    # bad tolerance
    rc = main(["evaluate", "--detections", str(corpus), "--truth", str(corpus), "--tolerance", "0"])
    assert rc == 1
    assert "tolerance" in capsys.readouterr().err

    # a model that loads but whose standardization overflows on real inputs
    model = tmp_path / "tiny-std.json"
    assert main(["train", "--data", str(corpus), "--kind", "trees", "--out", str(model)]) == 0
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["scaling"]["std"] = [5e-324, 1.0]
    model.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    with np.errstate(over="ignore"):
        rc = main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(tmp_path / "d.json")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("layout", ["salsa", "babble"])
def test_evaluate_reads_the_truth_of_an_export(tmp_path, capsys, layout):
    # Detections of an export score the same against the export itself as
    # against the canonical file of the same corpus.
    csv_exports.main([str(tmp_path)])
    export, model, detected = tmp_path / layout, tmp_path / "model.json", tmp_path / "det.json"
    for argv in (["train", "--kind", "logreg", "--out", str(model)],
                 ["detect", "--model", str(model), "--out", str(detected)]):
        assert main([*argv, "--data", str(export), "--format", layout]) == 0
    capsys.readouterr()
    reports = []
    for truth in (["--truth", str(export), "--format", layout],
                  ["--truth", str(tmp_path / "corpus.json")]):
        assert main(["evaluate", "--detections", str(detected), *truth]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "f1:" in reports[0]
    # The detections file is canonical, whatever layout the truth has.
    assert main(["evaluate", "--detections", str(export), "--truth", str(export),
                 "--format", layout]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_mismatched_frames_fails(tmp_path, corpus, capsys):
    other = tmp_path / "other.json"
    assert main(["synth", "--out", str(other)]) == 0  # 100 frames vs 40
    capsys.readouterr()
    rc = main(["evaluate", "--detections", str(corpus), "--truth", str(other)])
    assert rc == 1
    assert "do not align" in capsys.readouterr().err


def test_detect_an_empty_dataset_and_reject_a_huge_coordinate(tmp_path, corpus, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(corpus), "--kind", "logreg", "--out", str(model)]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema_version": 1, "frames": []}), encoding="utf-8")
    out = tmp_path / "detected.json"
    assert main(["detect", "--model", str(model), "--data", str(empty), "--out", str(out)]) == 0
    assert len(load_canonical(out)) == 0

    doc = json.loads(corpus.read_text(encoding="utf-8"))
    doc["frames"][1]["agents"][0]["x"] = int("9" * 401)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["detect", "--model", str(model), "--data", str(huge), "--out", str(out)]) == 1
    assert "frame entry 1, agent entry 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "train"])
def test_a_distance_that_overflows_is_an_error_naming_the_frame_and_agents(tmp_path, corpus, capsys, command):
    # Two agents of a training frame at x = 1e308 and -1e308: the file loads,
    # and the command ends in one error line, with no numpy warning.
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(corpus), "--kind", "logreg", "--out", str(model)]) == 0
    doc = json.loads(corpus.read_text(encoding="utf-8"))
    frame = doc["frames"][1]
    for agent, x in zip(frame["agents"], (1e308, -1e308)):
        agent["x"] = x
    ids = sorted(agent["id"] for agent in frame["agents"][:2])
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"detect": ["detect", "--model", str(model), "--out", str(tmp_path / "d.json")],
            "train": ["train", "--kind", "knn", "--out", str(tmp_path / "m.json")]}[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--data", str(far)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: frame {frame['frame_id']}: agents {ids[0]} and {ids[1]} are too far apart " \
                  f"for their distance to be a finite float\n"


@pytest.mark.parametrize("kind", ["knn", "logreg"])
def test_a_finite_distance_too_large_to_score_is_an_error_naming_the_frame_and_agents(
    tmp_path, corpus, capsys, kind
):
    # Agents at x = 0 and 1.7e308: the distance is finite, but kNN's squared
    # distances overflow, and so does logreg's logit.
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(corpus), "--kind", kind, "--out", str(model)]) == 0
    doc = json.loads(corpus.read_text(encoding="utf-8"))
    frame = doc["frames"][3]
    for agent, x in zip(frame["agents"], (0.0, 1.7e308)):
        agent["x"], agent["y"] = x, 0.0
    ids = sorted(agent["id"] for agent in frame["agents"][:2])
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["detect", "--model", str(model), "--data", str(far), "--out", str(tmp_path / "d.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: frame {frame['frame_id']}: agents {ids[0]} and {ids[1]} cannot be scored: " \
                  f"prediction scores must be finite\n"


@pytest.mark.parametrize("agents", [3, 200])
def test_coincident_agents_give_one_summary_line(tmp_path, corpus, capsys, agents):
    model, out = tmp_path / "model.json", tmp_path / "d.json"
    assert main(["train", "--data", str(corpus), "--kind", "knn", "--out", str(model)]) == 0
    doc = json.loads(corpus.read_text(encoding="utf-8"))
    frame = doc["frames"][2]
    frame["agents"] = [{"id": 100 + a, "x": 1.5, "y": -2.0, "body_theta": 0.1 * a} for a in range(agents)]
    frame.pop("groups", None)
    same = tmp_path / "same.json"
    same.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["detect", "--model", str(model), "--data", str(same), "--out", str(out)]) == 0
        # The library still warns once a pair.
        with pytest.raises(RuntimeWarning, match="^agents 100 and 101 share a position"):
            features_mod.pair_features(load_canonical(same).frames)
    lines = capsys.readouterr().err.splitlines()
    pairs = agents * (agents - 1) // 2
    assert len(lines) == 2 and lines[0].startswith(f"{len(doc['frames'])} frames in ")
    assert lines[1] == f"warning: {pairs} pairs of agents at one position, effort angle defaulted to 0; " \
                       f"the first: frame {frame['frame_id']}: agents 100 and 101"
    assert len(load_canonical(out).frames[2].truth.groups) >= 1


def test_warnings_other_than_coincident_pairs_pass_through_the_command(tmp_path, corpus, capsys, monkeypatch):
    real = features_mod.pairwise_deconstruct

    def warning_deconstruct(frames):
        warnings.warn("something else", RuntimeWarning)
        return real(frames)

    monkeypatch.setattr("fformation.cli.pairwise_deconstruct", warning_deconstruct)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["train", "--data", str(corpus), "--kind", "logreg", "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == ["something else"] * 2
    assert "warning:" not in capsys.readouterr().err


def test_detect_validates_each_frame_once_at_load_and_once_for_its_pairs(tmp_path, corpus, monkeypatch):
    model, out, again = tmp_path / "model.json", tmp_path / "detected.json", tmp_path / "again.json"
    assert main(["train", "--data", str(corpus), "--kind", "logreg", "--out", str(model)]) == 0
    frames = load_canonical(corpus).frames
    checked = []

    def counting(frame):
        checked.append(frame.frame_id)
        return validate_frame(frame)

    monkeypatch.setattr(datasets_mod, "validate_frame", counting)
    monkeypatch.setattr(features_mod, "validate_frame", counting)
    assert main(["detect", "--model", str(model), "--data", str(corpus), "--out", str(out)]) == 0
    assert sorted(checked) == sorted(2 * [f.frame_id for f in frames])
    # The detections file is canonical as written: it loads and saves to the
    # same bytes, and it keeps the corpus's frames in order.
    detected = load_canonical(out)
    save_canonical(detected, again)
    assert again.read_bytes() == out.read_bytes()
    assert [f.agents for f in detected.frames] == [f.agents for f in frames]


def _scaled(frame, factor):
    for agent in frame["agents"]:
        agent["x"], agent["y"] = agent["x"] * factor, agent["y"] * factor


def _at(frame, *positions):
    for agent, (x, y) in zip(frame["agents"], positions):
        agent["x"], agent["y"] = x, y


def _keep(frame, count):
    frame["agents"] = frame["agents"][:count]
    frame["groups"] = []


# Files that load but stress the commands: each mutates one frame of a valid
# corpus.
FAULTS = {
    "opposite-1e308": lambda f: _at(f, (1e308, 0.0), (-1e308, 0.0)),
    "x-1.7e308": lambda f: _at(f, (0.0, 0.0), (1.7e308, 0.0)),
    "y-minus-1.7e308": lambda f: _at(f, (-1.7e308, -1.7e308)),
    "scaled-1e300": lambda f: _scaled(f, 1e300),
    "scaled-1e-300": lambda f: _scaled(f, 1e-300),
    "subnormal": lambda f: _at(f, (5e-324, 0.0), (0.0, 5e-324), (-5e-324, -5e-324)),
    "two-coincident": lambda f: _at(f, (3.0, 4.0), (3.0, 4.0)),
    "all-coincident": lambda f: _scaled(f, 0.0),
    "one-agent": lambda f: _keep(f, 1),
    "no-agents": lambda f: _keep(f, 0),
}


# The faults whose training features have a mean or std that overflows.
STD_OVERFLOWS = {"x-1.7e308", "scaled-1e300"}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_file_that_loads_never_crashes_a_command(tmp_path, corpus, capsys, fault):
    # Every command on a mutated file exits 0, or exits 1 with one error
    # line; a traceback or a numpy warning, raised as an error here, fails.
    doc = json.loads(corpus.read_text(encoding="utf-8"))
    FAULTS[fault](doc["frames"][2])
    data = tmp_path / "fault.json"
    data.write_text(json.dumps(doc), encoding="utf-8")
    load_canonical(data)

    errors = []

    def run(*argv):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main(list(argv))
        err = capsys.readouterr().err
        assert status in (0, 1) and "Traceback" not in err and "RuntimeWarning" not in err
        if status:
            assert err.startswith("error: ") and err.count("\n") == 1
        errors.append(err)
        return status

    kinds = ("knn", "trees", "logreg")
    for kind in kinds:
        assert main(["train", "--data", str(corpus), "--kind", kind, "--out", str(tmp_path / f"{kind}.json")]) == 0
        status = run("train", "--data", str(data), "--kind", kind, "--out", str(tmp_path / f"fault-{kind}.json"))
        # Features whose std overflows fault no one pair: the error names
        # the file.
        assert (fault in STD_OVERFLOWS) == (status == 1 and errors[-1].startswith(f"error: {data}: feature "))
        detected = tmp_path / f"detected-{kind}.json"
        if run("detect", "--model", str(tmp_path / f"{kind}.json"), "--data", str(data), "--out", str(detected)) == 0:
            assert run("evaluate", "--detections", str(detected), "--truth", str(data)) == 0
            run("characterize", "--data", str(detected), "--use", "detections")
    assert run("evaluate", "--detections", str(data), "--truth", str(data), "--matching", "exact") == 0
    run("characterize", "--data", str(data), "--svg", str(tmp_path / "sizes.svg"))
    # The mutated frame draws with finite coordinates, or is an error line
    # naming it, and no file is written.
    frame_id, scene = doc["frames"][2]["frame_id"], tmp_path / "scene.svg"
    if run("render", "--data", str(data), "--frame", str(frame_id), "--svg", str(scene)):
        assert errors[-1].startswith(f"error: frame {frame_id}: ") and not scene.exists()
    else:
        svg = scene.read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg
    # synth on the file, which loads as JSON but is no config, is an error
    # line; on the corpus's own config it writes the corpus again.
    assert run("synth", "--config", str(data), "--out", str(tmp_path / "no-corpus.json")) == 1
    again = tmp_path / "again.json"
    assert run("synth", "--config", str(tmp_path / "config.json"), "--out", str(again)) == 0
    assert again.read_bytes() == corpus.read_bytes()
