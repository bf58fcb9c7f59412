"""End-to-end command-line workflows on temporary files."""

import json

import numpy as np
import pytest

from fformation.cli import main
from fformation.datasets import load_canonical
from fformation.synthetic import SynthConfig, save_synth_config


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
