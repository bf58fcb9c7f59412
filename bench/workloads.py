"""The benchmark's three workloads, their rounds, and the run that times them.

A run generates the workload's inputs (the set-up), then runs whole
rounds until its time is spent. A round trains every classifier kind,
detects every evaluation frame with it, evaluates and characterizes the
detections, and repeats the set-up ``SETUP_REPS`` times along the way.
The checks then run once, untimed, on the last round's outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from fformation import (
    characterization,
    classifiers,
    cli,
    evaluation,
    features,
    reconstruction,
    synthetic,
)

import checks
from tracing import KINDS, Tracer

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 4
# Every seed trains the same models, from the same frames and classifier
# seed: the time to grow the bagged trees follows their size, which moves
# by a fifth between training sets of 200 frames, and the time to score
# with them follows their depth. The run's seed picks the evaluation frames.
TRAIN_SEED = 0
CHECK_STRIDE = 10  # the costly checks run on every 10th evaluation frame
F1_FLOOR = {"corpus": {"knn": 0.90, "trees": 0.90}}  # criterion 5


@dataclasses.dataclass(frozen=True)
class Shape:
    """A workload's inputs and the operations of one round.

    ``train`` and ``evaluation`` are SynthConfig fields without the seed
    (see ``inputs``). ``agents``, when set, keeps only the generated
    evaluation scenes whose agent count lies in that closed range (see
    ``evaluation_frames``). ``reps`` gives, per kind, the training calls and
    the detection passes of a round. A round runs in ``slots`` slots; in
    each, every kind takes its share of the training calls, then detects
    its share of the evaluation frames once per pass (the CLI detects a
    whole file per pass, so there the passes are shared out instead).
    The kinds thus take their samples side by side across the whole
    round, and a slow spell of the machine hits them alike.
    """

    train: dict
    evaluation: dict
    reps: dict
    slots: int
    agents: tuple | None = None


SHAPES = {
    # Criterion 5: ~8 agents a frame, 64k training pairs, 16k evaluation pairs.
    "corpus": Shape(
        train={"n_frames": 2000},
        evaluation={"n_frames": 500},
        reps={"knn": (8, 1), "trees": (3, 2), "logreg": (3, 32)},
        slots=50,
    ),
    # About 200 agents a scene; a small training corpus keeps kNN to seconds a frame.
    # Greedy voting costs O(n^3), so the scenes keep a fixed size: with any
    # agent count, frames/s would follow the seed's group sizes.
    "crowd": Shape(
        train={"n_frames": 200},
        evaluation={"n_frames": 5, "groups_per_frame": (45, 45), "n_distractors": 50,
                    "area": (60.0, 60.0)},
        reps={"knn": (60, 1), "trees": (16, 4), "logreg": (12, 5)},
        slots=10,
        agents=(202, 208),
    ),
    # File sizes of an ordinary CLI session; `train` keeps its default 0.6 split.
    "cli": Shape(
        train={"n_frames": 400},
        evaluation={"n_frames": 300},
        reps={"knn": (4, 10), "trees": (10, 8), "logreg": (14, 32)},
        slots=10,
    ),
}


def spread(count: int, slots: int) -> list[int]:
    """``count`` operations shared evenly over ``slots``, the first taking at least one."""
    return [math.ceil((s + 1) * count / slots) - math.ceil(s * count / slots) for s in range(slots)]


def inputs(shape: Shape, seed: int):
    """The SynthConfigs of the training frames (the same for every seed)
    and of the evaluation frames (seeded by the run's seed)."""
    return (synthetic.SynthConfig(**shape.train, seed=TRAIN_SEED),
            synthetic.SynthConfig(**shape.evaluation, seed=seed + 1))


def evaluation_frames(shape: Shape, seed: int):
    """The evaluation frames: generated from the seed, then, where the
    shape fixes an agent count, the first scenes that hold it."""
    config = inputs(shape, seed)[1]
    if shape.agents is None:
        return synthetic.generate_synthetic(config).frames
    low, high = shape.agents
    # Scenes come from one generator stream, so a longer batch repeats the
    # shorter one and the choice stays the same for a seed.
    batch = 6 * config.n_frames
    while True:
        frames = synthetic.generate_synthetic(dataclasses.replace(config, n_frames=batch)).frames
        kept = [f for f in frames if low <= len(f.agents) <= high][:config.n_frames]
        if len(kept) == config.n_frames:
            return kept
        batch *= 2


class Ledger:
    """Operations attempted and failed; prints the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)


@dataclasses.dataclass
class KindRuns:
    """What the rounds produced for one classifier kind."""

    train_s: list = dataclasses.field(default_factory=list)
    detected_frames: int = 0
    detect_s: float = 0.0
    digests: set = dataclasses.field(default_factory=set)
    detections: dict = dataclasses.field(default_factory=dict)  # last pass: frame_id -> groups
    model: object = None
    f1: float = math.nan
    printed_f1: str = ""


class Workload:
    """One run's workload: its shape, its seed and its ledger."""

    def __init__(self, shape: Shape, seed: int, ledger: Ledger) -> None:
        self.shape, self.seed, self.ledger = shape, seed, ledger
        self.setup_s: list[float] = []

    def timed_setup(self) -> None:
        started = time.perf_counter()
        self.setup()
        self.setup_s.append(time.perf_counter() - started)

    def close(self) -> None:
        pass


class InProcess(Workload):
    """corpus and crowd: the pipeline called as a library, frame by frame."""

    train_frames = eval_frames = ()

    def setup(self) -> None:
        self.train_frames = synthetic.generate_synthetic(inputs(self.shape, self.seed)[0]).frames
        self.eval_frames = evaluation_frames(self.shape, self.seed)

    def train(self, run: KindRuns, kind: str) -> None:
        self.ledger.attempted += 1
        started = time.perf_counter()
        try:
            samples = [s for f in self.train_frames for s in features.pairwise_deconstruct(f)]
            run.model = classifiers.train(samples, kind=kind, seed=TRAIN_SEED)
        except Exception:
            self.ledger.fail(f"train {kind}")
            return
        run.train_s.append(time.perf_counter() - started)

    def detect(self, model, frames, detected: dict, kind: str) -> float:
        """Detects each frame into ``detected``; returns the wall time."""
        self.ledger.attempted += len(frames)
        started = time.perf_counter()
        for frame in frames:
            try:
                detected[frame.frame_id] = reconstruction.detect(model, frame)
            except Exception:
                self.ledger.fail(f"detect {kind} frame {frame.frame_id}")
        return time.perf_counter() - started

    def round(self, runs: dict[str, KindRuns]) -> None:
        slots, n = self.shape.slots, len(self.eval_frames)
        chunks = [self.eval_frames[s * n // slots:(s + 1) * n // slots] for s in range(slots)]
        trains = {kind: spread(self.shape.reps[kind][0], slots) for kind in KINDS}
        passes = {kind: [{} for _ in range(self.shape.reps[kind][1])] for kind in KINDS}
        setups = spread(SETUP_REPS, slots)
        for s, chunk in enumerate(chunks):
            for _ in range(setups[s]):
                self.timed_setup()
            for kind in KINDS:
                for _ in range(trains[kind][s]):
                    self.train(runs[kind], kind)
            for kind in KINDS:
                for detected in passes[kind]:
                    runs[kind].detect_s += self.detect(runs[kind].model, chunk, detected, kind)
                    runs[kind].detected_frames += len(chunk)
        for kind in KINDS:
            run, detected = runs[kind], passes[kind][-1]
            run.digests |= {checks.digest({f: gs.groups for f, gs in d.items()})
                            for d in passes[kind]}
            run.detections = {fid: gs.groups for fid, gs in detected.items()}
            done = [f for f in self.eval_frames if f.frame_id in detected]
            run.f1 = evaluation.evaluate([(f.frame_id, detected[f.frame_id]) for f in done],
                                         [(f.frame_id, f.truth) for f in done]).f1
            characterization.characterize_corpus(done, [detected[f.frame_id] for f in done])

    def models(self, runs: dict[str, KindRuns]) -> dict:
        return {kind: runs[kind].model for kind in KINDS}


class Cli(Workload):
    """cli: the same pipeline as commands of ``fformation.cli.main`` on files."""

    def __init__(self, shape: Shape, seed: int, ledger: Ledger) -> None:
        super().__init__(shape, seed, ledger)
        OUT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        for name, config in zip(("train", "eval"), inputs(shape, seed)):
            synthetic.save_synth_config(config, self.path(f"{name}-config.json"))

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def command(self, *argv: str) -> tuple[float | None, str]:
        """One CLI command: its wall time (None if it failed) and its stdout."""
        self.ledger.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(argv))
            if status != 0:
                raise RuntimeError(f"exit status {status}: {err.getvalue().strip()}")
        except Exception:
            self.ledger.fail(" ".join(argv))
            return None, ""
        return time.perf_counter() - started, out.getvalue()

    def setup(self) -> None:
        for name in ("train", "eval"):
            self.command("synth", "--config", self.path(f"{name}-config.json"),
                         "--out", self.path(f"{name}.json"))

    def round(self, runs: dict[str, KindRuns]) -> None:
        slots = self.shape.slots
        trains = {kind: spread(self.shape.reps[kind][0], slots) for kind in KINDS}
        detects = {kind: spread(self.shape.reps[kind][1], slots) for kind in KINDS}
        setups = spread(SETUP_REPS, slots)
        for s in range(slots):
            for _ in range(setups[s]):
                self.timed_setup()
            for kind in KINDS:
                for _ in range(trains[kind][s]):
                    seconds, _ = self.command("train", "--data", self.path("train.json"),
                                              "--kind", kind, "--seed", str(TRAIN_SEED),
                                              "--out", self.path(f"model-{kind}.json"))
                    if seconds is not None:
                        runs[kind].train_s.append(seconds)
            for kind in KINDS:
                for _ in range(detects[kind][s]):
                    detected = self.path(f"detected-{kind}.json")
                    seconds, _ = self.command("detect", "--model", self.path(f"model-{kind}.json"),
                                              "--data", self.path("eval.json"), "--out", detected)
                    if seconds is not None:
                        runs[kind].detect_s += seconds
                        runs[kind].detected_frames += self.shape.evaluation["n_frames"]
                    runs[kind].detections = read_groups(detected)
                    runs[kind].digests.add(checks.digest(runs[kind].detections))
        for kind in KINDS:
            detected = self.path(f"detected-{kind}.json")
            _, report = self.command("evaluate", "--detections", detected,
                                     "--truth", self.path("eval.json"))
            found = re.search(r"^f1:\s+(\S+)$", report, flags=re.M)
            runs[kind].printed_f1 = found.group(1) if found else ""
            self.command("characterize", "--data", detected, "--use", "detections")

    def models(self, runs: dict[str, KindRuns]) -> dict:
        return {kind: classifiers.load_model(self.path(f"model-{kind}.json")) for kind in KINDS}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def read_groups(path) -> dict[int, list]:
    """frame_id -> groups of a canonical detections file, read without the program."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {f["frame_id"]: f.get("groups", []) for f in doc["frames"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def verify(name: str, workload: Workload, runs: dict[str, KindRuns]) -> list[str]:
    """Every check on the last round's outputs; returns the failures found."""
    problems = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except checks.CheckError as exc:
            problems.append(str(exc))
        except Exception as exc:  # a crash inside a check is a failed check
            problems.append(f"{name}: {fn.__name__}: {type(exc).__name__}: {exc}")
        return None

    train_frames = synthetic.generate_synthetic(inputs(workload.shape, workload.seed)[0]).frames
    eval_frames = evaluation_frames(workload.shape, workload.seed)
    truths = {f.frame_id: f.truth.groups for f in eval_frames}
    sample = eval_frames[::CHECK_STRIDE]
    # Training pairs are exact hits for kNN; evaluation pairs are not.
    X = [[s.distance, s.effort_angle]
         for f in (train_frames[0], *sample[:2]) for s in features.pairwise_deconstruct(f)[:24]]
    models = attempt(workload.models, runs) or {}
    for kind in KINDS:
        run, model = runs[kind], models.get(kind)
        where = f"{name}/{kind}"
        print(f"digest {where} {checks.digest(run.detections)}", file=sys.stderr)
        if len(run.digests) > 1:
            problems.append(f"{where}: detection passes disagree ({len(run.digests)} digests)")
        for frame in eval_frames:
            if frame.frame_id in run.detections:
                attempt(checks.check_partition, frame.agent_ids(), run.detections[frame.frame_id],
                        f"{where} frame {frame.frame_id}")
        done = {fid: truths[fid] for fid in run.detections}
        ordered = run.detections  # groups in the order greedy voting emitted them
        if isinstance(workload, Cli):
            exact = attempt(checks.reference_f1, run.detections, done)
            if exact is not None:
                run.f1 = float(exact)
                attempt(checks.check_printed_f1, run.printed_f1, exact, where)
            own = {f.frame_id: attempt(reconstruction.detect, model, f) for f in eval_frames}
            ordered = {fid: gs.groups for fid, gs in own.items() if gs is not None}
            attempt(checks.check_same, run.detections, ordered, f"{where} file vs in-process")
        else:
            attempt(checks.check_f1, run.detections, done, run.f1, where)
        if kind in F1_FLOOR.get(name, {}):
            attempt(checks.check_floor, run.f1, F1_FLOOR[name][kind], f"{where} F1")
        for frame in sample:
            matrix = attempt(classifiers.build_relation_matrix, model, frame)
            if matrix is not None and frame.frame_id in ordered:
                attempt(checks.check_greedy, matrix, ordered[frame.frame_id],
                        f"{where} frame {frame.frame_id}")
        reference = {"knn": checks.reference_knn, "logreg": checks.reference_logreg}.get(kind)
        scored = attempt(classifiers.predict_batch, model, X)
        if reference is not None and scored is not None:
            attempt(checks.check_scores, reference(model, X), *scored, f"{where} scores")
    return problems


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def _ratio(count, seconds) -> float:
    return count / seconds if seconds else math.nan


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up, rounds for ``seconds``, checks; returns the result object."""
    ledger = Ledger()
    workload = (Cli if name == "cli" else InProcess)(SHAPES[name], seed, ledger)
    runs = {kind: KindRuns() for kind in KINDS}
    tracer = Tracer() if trace else None
    try:
        workload.timed_setup()

        # With tracing, traced units (a set-up plus a round) alternate with
        # plain rounds, so the overhead is measured on the same inputs in
        # the same process; the plain rounds give no metrics then.
        plain_s, traced_s = [], []
        started = time.perf_counter()
        while True:
            if tracer is not None and len(traced_s) < len(plain_s):
                with tracer.installed(), tracer.span("unit"):
                    with tracer.span("setup"):
                        workload.setup()
                    round_started = time.perf_counter()
                    with tracer.span("round"):
                        workload.round({kind: KindRuns() for kind in KINDS})
                traced_s.append(time.perf_counter() - round_started)
            else:
                round_started = time.perf_counter()
                workload.round(runs)
                plain_s.append(time.perf_counter() - round_started)
            elapsed = time.perf_counter() - started
            mean_round = elapsed / (len(plain_s) + len(traced_s))
            if elapsed + mean_round > seconds and (tracer is None or traced_s):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = verify(name, workload, runs)
    finally:
        workload.close()

    print(f"{name}: set-up {_median(workload.setup_s):.2f}s; {len(plain_s)} rounds of "
          f"{_median(plain_s):.1f}s; {ledger.attempted} operations, {ledger.failed} failed",
          file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    n_eval = SHAPES[name].evaluation["n_frames"]
    if tracer is None:
        metrics = {"setup_s": (_median(workload.setup_s), "s")}
        for kind in KINDS:
            run = runs[kind]
            metrics[f"train_s.{kind}"] = (_mean(run.train_s), "s")
            metrics[f"detect_fps.{kind}"] = (_ratio(run.detected_frames, run.detect_s), "frames/s")
            metrics[f"f1.{kind}"] = (run.f1, "F1")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        overhead = 100.0 * (_median(traced_s) / _median(plain_s) - 1.0)
        metrics = tracer.layer_metrics(units=len(traced_s), frames_per_pass=n_eval)
        metrics["trace.overhead_pct"] = (overhead, "%")
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.write(path, {"workload": name, "seed": seed, "traced_units": len(traced_s),
                            "plain_round_s": plain_s, "traced_round_s": traced_s,
                            "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"trace written to {path}; overhead {overhead:+.1f}%", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
