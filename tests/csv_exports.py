"""Synthetic corpora written in the SALSA and Babble CSV layouts.

The layouts are the ones pinned in the docstrings of
``fformation.datasets.load_salsa`` and ``load_babble``. Run as a script,

    python tests/csv_exports.py OUT_DIR [N_FRAMES]

it writes one corpus (40 frames by default) three times: as OUT_DIR/salsa,
as OUT_DIR/babble and as the canonical file OUT_DIR/corpus.json.
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path

from fformation.core import AgentPose, Frame
from fformation.datasets import CanonicalDataset, save_canonical
from fformation.synthetic import SynthConfig, generate_synthetic


def export_frames(n_frames: int, seed: int = 0) -> tuple[Frame, ...]:
    """Synthetic frames that both layouts hold exactly. Every frame has
    agents 1..6 in two groups of three: SALSA needs the same agents in
    every frame, and training needs pairs in and across groups. Each agent
    gets a head angle, which SALSA rows always carry."""
    config = SynthConfig(
        n_frames=n_frames, seed=seed, group_size_distribution={3: 1.0},
        groups_per_frame=(2, 2), n_distractors=0,
    )
    return tuple(
        dataclasses.replace(f, agents=tuple(
            AgentPose.make(a.agent_id, a.x, a.y, a.body_theta, a.body_theta + 0.5)
            for a in f.agents
        ))
        for f in generate_synthetic(config).frames
    )


def salsa_tables(frames) -> dict[str, list[list[str]]]:
    """The rows of cells of each SALSA file that holds ``frames``, whose ids
    must be 0, 1, ... and whose agents must be 1..N in every frame."""
    geometry = [
        [repr(f.timestamp)]
        + [repr(v) for a in f.agents for v in (a.x, a.y, a.body_theta, a.head_theta)]
        for f in frames
    ]
    groups = [
        [repr(f.timestamp), ";".join(" ".join(map(str, g)) for g in f.truth.as_sorted_lists())]
        for f in frames
    ]
    return {"geometryGT.csv": geometry, "fformationGT.csv": groups}


def babble_tables(frames) -> dict[str, list[list[str]]]:
    """The rows of cells, headers included, of each Babble file that holds
    ``frames``, with the head_theta column."""
    geometry = [["frame", "time", "agent", "x", "y", "body_theta", "head_theta"]] + [
        [str(f.frame_id), repr(f.timestamp), str(a.agent_id)]
        + [repr(v) for v in (a.x, a.y, a.body_theta, a.head_theta)]
        for f in frames
        for a in f.agents
    ]
    groups = [["frame", "groups"]] + [
        [str(f.frame_id), ",".join("{%s}" % ",".join(map(str, g)) for g in f.truth.as_sorted_lists())]
        for f in frames
    ]
    return {"geometry.csv": geometry, "annotations.csv": groups}


def write_tables(directory, tables: dict[str, list[list[str]]]) -> Path:
    """Write each table as a CSV file in ``directory``; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    return directory


def main(argv: list[str]) -> None:
    out = Path(argv[0])
    frames = export_frames(int(argv[1]) if len(argv) > 1 else 40)
    write_tables(out / "salsa", salsa_tables(frames))
    write_tables(out / "babble", babble_tables(frames))
    save_canonical(CanonicalDataset.from_frames(frames), out / "corpus.json")


if __name__ == "__main__":
    main(sys.argv[1:])
