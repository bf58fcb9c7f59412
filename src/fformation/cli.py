"""Command-line surface for the detection pipeline.

Subcommands: train, detect, evaluate, characterize, synth, render.
All data goes to stdout or files named by flags; diagnostics and errors
go to stderr. Exit status is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from typing import Optional, Sequence

from .characterization import characterize_corpus, format_size_table
from .classifiers import (
    KIND_ALIASES,
    TrainingError,
    load_model,
    pairwise_accuracy,
    save_model,
    train,
)
from .core import Frame, ValidationError
from .datasets import (
    CanonicalDataset,
    load_babble,
    load_canonical,
    load_salsa,
    save_canonical,
    split_frames,
)
from .evaluation import as_tolerance, evaluate, format_report
from .features import pairwise_deconstruct
from .reconstruction import MODES, detect
from .render import render_frame_svg, render_size_chart_svg
from .synthetic import PlacementError, SynthConfig, generate_synthetic, load_synth_config

_LOADERS = {"canonical": load_canonical, "salsa": load_salsa, "babble": load_babble}


def _load(path: str, fmt: str) -> CanonicalDataset:
    return _LOADERS[fmt](path)


def _split_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"split must be in (0, 1), got {text}")
    return value


def _groups_by_frame(dataset: CanonicalDataset, path: str) -> list[tuple[int, object]]:
    pairs = []
    for frame in dataset.frames:
        if frame.truth is None:
            raise ValidationError(f"{path}: frame {frame.frame_id} has no groups entry")
        pairs.append((frame.frame_id, frame.truth))
    return pairs


def cmd_train(args: argparse.Namespace) -> int:
    dataset = _load(args.data, args.format)
    train_frames, test_frames = split_frames(dataset.frames, args.split)
    train_pairs = pairwise_deconstruct(train_frames)
    try:
        model = train(train_pairs, kind=args.kind, seed=args.seed)
    except TrainingError as exc:
        raise TrainingError(f"{args.data}: {exc}") from None
    save_model(model, args.out)
    print(f"train_pairwise_accuracy: {pairwise_accuracy(model, train_pairs):.4f}")
    if test_frames:
        test_pairs = pairwise_deconstruct(test_frames)
        if len(test_pairs):
            print(f"test_pairwise_accuracy: {pairwise_accuracy(model, test_pairs):.4f}")
    print(f"model written to {args.out}", file=sys.stderr)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = _load(args.data, args.format)
    started = time.perf_counter()
    groups = detect(model, dataset.frames, mode=args.mode)
    detected = tuple(
        Frame(frame_id=f.frame_id, agents=f.agents, timestamp=f.timestamp, truth=g)
        for f, g in zip(dataset.frames, groups)
    )
    elapsed = time.perf_counter() - started
    # The loader validated and sorted the frames, and detect's groups
    # partition each frame's agents, so the detections need no second check.
    save_canonical(CanonicalDataset(schema_version=dataset.schema_version, frames=detected), args.out)
    fps = len(detected) / elapsed if elapsed > 0 else float("inf")
    print(f"{len(detected)} frames in {elapsed:.2f}s ({fps:.1f} frames/s)", file=sys.stderr)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tol = as_tolerance(args.tolerance)
    det_data = load_canonical(args.detections)
    truth_data = _load(args.truth, args.format)
    report = evaluate(
        _groups_by_frame(det_data, args.detections),
        _groups_by_frame(truth_data, args.truth),
        T=tol,
        matching=args.matching,
    )
    sys.stdout.write(format_report(report))
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    dataset = _load(args.data, args.format)
    stats = characterize_corpus(dataset.frames)
    table = f"source: {args.use}\n" + format_size_table(stats)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_size_chart_svg(stats))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = load_synth_config(args.config) if args.config else SynthConfig()
    dataset = generate_synthetic(config)
    save_canonical(dataset, args.out)
    print(f"{len(dataset)} frames written to {args.out}", file=sys.stderr)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    dataset = _load(args.data, args.format)
    match = [f for f in dataset.frames if f.frame_id == args.frame]
    if not match:
        raise ValidationError(f"{args.data} has no frame with frame_id {args.frame}")
    svg = render_frame_svg(match[0])
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fformation",
        description="Detect and characterize conversational groups from 2-D poses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, what: str = "input data") -> None:
        p.add_argument(
            "--format",
            choices=sorted(_LOADERS),
            default="canonical",
            help=f"{what} layout (default: canonical)",
        )

    p = sub.add_parser("train", help="train a pairwise classifier")
    p.add_argument("--data", required=True, help="dataset path (file or directory)")
    add_format(p)
    p.add_argument("--kind", required=True, choices=sorted(KIND_ALIASES), help="classifier kind")
    p.add_argument("--split", type=_split_fraction, default=0.6, help="train fraction (0,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="detect groups with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    add_format(p)
    p.add_argument("--out", required=True, help="detections file to write (canonical layout)")
    p.add_argument("--mode", choices=MODES, default="intersection")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score detections against truth")
    p.add_argument("--detections", required=True, help="canonical file with detected groups")
    p.add_argument("--truth", required=True, help="dataset with truth groups (file or directory)")
    add_format(p, "truth dataset")
    p.add_argument("--tolerance", default="0.6667", help='match tolerance, e.g. "0.6667" or "2/3"')
    p.add_argument("--matching", choices=("greedy", "exact"), default="greedy")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("characterize", help="per-size symmetry/tightness table")
    p.add_argument("--data", required=True)
    add_format(p)
    p.add_argument("--use", choices=("truth", "detections"), default="truth",
                   help="what the data file's groups represent")
    p.add_argument("--out", default=None, help="table file (default: stdout)")
    p.add_argument("--svg", default=None, help="optional bar-chart SVG path")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--config", default=None, help="generator config (JSON); defaults used if absent")
    p.add_argument("--out", required=True, help="canonical dataset file to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="render one frame as SVG")
    p.add_argument("--data", required=True)
    add_format(p)
    p.add_argument("--frame", type=int, required=True, help="frame_id to draw")
    p.add_argument("--svg", required=True, help="SVG file to write")
    p.set_defaults(func=cmd_render)
    return parser


# The warning pair features give, one a pair, for two agents at one position.
_COINCIDENT = r"agents .+ and .+ share a position; effort angle defaulted to 0$"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. The coincident-pair warnings of the command are
    not shown one by one: one line counts them and names the first."""
    parser = build_parser()
    args = parser.parse_args(argv)
    coincident = []
    with warnings.catch_warnings():
        warnings.filterwarnings("always", _COINCIDENT, RuntimeWarning)
        show = warnings.showwarning

        def count(message, category, *rest, **kwargs):
            if category is RuntimeWarning and hasattr(message, "pair"):
                coincident.append(message)
            else:
                show(message, category, *rest, **kwargs)

        warnings.showwarning = count
        try:
            status, error = args.func(args), None
        except (ValueError, PlacementError, OSError) as exc:
            status, error = 1, exc
    if coincident:
        pairs = f"{len(coincident)} pair" + "s" * (len(coincident) != 1)
        print(f"warning: {pairs} of agents at one position, effort angle defaulted to 0; "
              f"the first: {coincident[0].pair}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
