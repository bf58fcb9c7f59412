"""Written JSON files: the text of json.dumps, written in bounded pieces."""

import json
import math
import tracemalloc

import pytest

from fformation.classifiers import ModelFormatError, load_model, model_to_dict, save_model, train
from fformation.core import AgentPose, Frame, GroupSet
from fformation.datasets import (
    CanonicalDataset,
    DatasetFormatError,
    _frame_to_dict,
    load_canonical,
    save_canonical,
)
from fformation.features import pairwise_deconstruct
from fformation.jsonfile import _BLOCK, write_json
from fformation.synthetic import SynthConfig, generate_synthetic, load_synth_config, save_synth_config


def _frames(n_frames, seed=1):
    return generate_synthetic(SynthConfig(n_frames=n_frames, seed=seed)).frames


def _crowd(n_agents):
    """One frame of ``n_agents`` agents in groups of two."""
    agents = tuple(AgentPose.make(i, 0.7 * i, (-1.0) ** i, 0.1 * i) for i in range(n_agents))
    groups = GroupSet.from_iterable([[i, i + 1] for i in range(0, n_agents - 1, 2)])
    return Frame(frame_id=0, agents=agents, timestamp=0.5, truth=groups)


def _dataset_doc(frames):
    return {"schema_version": 1, "frames": [_frame_to_dict(f) for f in frames]}


@pytest.mark.parametrize(
    "frames",
    [
        (),
        _frames(_BLOCK),
        _frames(_BLOCK + 1),
        _frames(3 * _BLOCK + 5),
        (_crowd(_BLOCK),),
        (_crowd(_BLOCK + 1),),
        (_crowd(2 * _BLOCK + 2),),
    ],
    ids=["no-frames", "block", "block+1", "3-blocks+5", "block-agents", "block+1-agents",
         "2-blocks+2-agents"],
)
def test_save_canonical_writes_json_dumps_of_the_document(tmp_path, frames):
    path = tmp_path / "data.json"
    save_canonical(CanonicalDataset.from_frames(frames), path)
    assert path.read_text(encoding="utf-8") == json.dumps(_dataset_doc(frames))


@pytest.mark.parametrize("kind", ["knn", "trees", "logreg"])
def test_save_model_writes_json_dumps_of_the_document(tmp_path, kind):
    pairs = [s for f in _frames(30, seed=2) for s in pairwise_deconstruct(f)]
    model = train(pairs, kind=kind, seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == json.dumps(model_to_dict(model))


def test_save_synth_config_writes_json_dumps_of_the_document(tmp_path):
    config = SynthConfig(n_frames=7, seed=3)
    path = tmp_path / "config.json"
    save_synth_config(config, path)
    assert path.read_text(encoding="utf-8") == json.dumps(config.to_dict())
    assert load_synth_config(path) == config


ODD_DOCUMENTS = [
    [],
    {},
    list(range(_BLOCK)),
    list(range(_BLOCK + 1)),
    [list(range(_BLOCK + 1))],
    [[list(range(_BLOCK + 1))] for _ in range(_BLOCK + 1)],
    [{"a": list(range(_BLOCK + 1))}, 1, "x", None, [], {}],
    [[float(i)] * (i % 3) for i in range(2 * _BLOCK + 1)],
    {1: [2.5] * (_BLOCK + 2), 2.5: {"k": None}, False: "f", None: [{}]},
    {"é \"\\": ["ü\n\t", math.nan, math.inf, -math.inf, -0.0, 10**30]},
    [(1, 2), (3, [4] * (_BLOCK + 1))],
    [[[[[]]]]] * (_BLOCK + 3),
]


@pytest.mark.parametrize("doc", ODD_DOCUMENTS)
def test_write_json_writes_json_dumps_of_any_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    write_json(doc, path)
    assert path.read_text(encoding="utf-8") == json.dumps(doc)


def _peak_beyond(build, save):
    """The tracemalloc peak of ``save()`` less the size of the document that
    ``build()`` makes, which ``save`` makes too: what writing costs on top."""
    tracemalloc.start()
    try:
        doc = build()
        size = tracemalloc.get_traced_memory()[0]
        del doc
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        save()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - size


def test_saving_holds_no_more_than_a_block_beyond_the_document(tmp_path):
    frames = generate_synthetic(SynthConfig(n_frames=400, seed=0)).frames
    dataset = CanonicalDataset.from_frames(frames)
    model = train(pairwise_deconstruct(frames[:240]), kind="knn", seed=0)
    path = tmp_path / "out.json"
    # Warm up: the first call imports and caches.
    save_canonical(dataset, path)
    save_model(model, path)
    data_peak = _peak_beyond(lambda: _dataset_doc(frames), lambda: save_canonical(dataset, path))
    model_peak = _peak_beyond(lambda: model_to_dict(model), lambda: save_model(model, path))
    # One json.dumps call over either whole document peaks at 2.4 to 2.8 MB.
    assert data_peak <= 0.25e6
    assert model_peak <= 0.25e6


@pytest.mark.parametrize(
    "load, error",
    [(load_canonical, DatasetFormatError), (load_model, ModelFormatError),
     (load_synth_config, DatasetFormatError)],
)
def test_loaders_name_the_line_and_column_of_broken_json(tmp_path, load, error):
    path = tmp_path / "broken.json"
    path.write_text('{"frames": [1, 2,, 3]}', encoding="utf-8")
    # Column 18 is the second comma.
    with pytest.raises(error, match="invalid JSON at line 1 column 18: Expecting value"):
        load(path)
    path.write_text('{"frames":\n  [1, 2,, 3]}', encoding="utf-8")
    with pytest.raises(error, match="invalid JSON at line 2 column 9: Expecting value"):
        load(path)
