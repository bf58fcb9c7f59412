"""Per-layer spans and counts, recorded from outside the program.

A :class:`Tracer` replaces public functions of the ``fformation`` modules
with wrappers that record one span per call: name, kind, parent span,
start, end and a few counts read from the call's arguments or result.
The wrappers are installed in every module namespace (and module-level
dict, such as the CLI's loader table) that holds the original function,
so calls between modules are caught too; :meth:`Tracer.installed`
restores the originals on exit. Spans stay in memory until
:meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

from fformation import (
    characterization,
    classifiers,
    datasets,
    evaluation,
    features,
    reconstruction,
    synthetic,
)
from fformation.classifiers import persistence

KINDS = ("knn", "trees", "logreg")
SHORT_KIND = {"weighted_knn": "knn", "bagged_trees": "trees", "logistic_regression": "logreg"}

# Frames a pass must hold before a p90 of per-frame detection time is reported.
P90_MIN_FRAMES = 100


def _model_arg(args, kwargs):
    return SHORT_KIND[args[0].kind]


def _kind_arg(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return SHORT_KIND[classifiers.canonical_kind(kind)]


def _loaded_kind(args, result):
    return SHORT_KIND[result.kind], {}


def _pair_counts(args, result):
    return None, {"pairs": len(result), "positive": sum(s.label == 1 for s in result)}


def _score_counts(args, result):
    labels, _ = result
    return None, {"pairs": len(labels), "positive": int(labels.sum())}


def _group_counts(args, result):
    grouped = sum(len(g) for g in result.groups)
    return None, {"groups": len(result.groups), "ungrouped": args[0].n - grouped}


# (span name, public function, kind read from the arguments, result reader).
# A span without its own kind inherits its caller's; the result reader
# returns a kind known only from the result, and the span's counts.
LAYERS = (
    ("synthetic.generate", synthetic.generate_synthetic, None, None),
    ("datasets.save", datasets.save_canonical, None, None),
    ("datasets.load", datasets.load_canonical, None, None),
    ("persistence.save", persistence.save_model, _model_arg, None),
    ("persistence.load", persistence.load_model, None, _loaded_kind),
    ("features.deconstruct", features.pairwise_deconstruct, None, _pair_counts),
    ("classifiers.train", classifiers.train, _kind_arg, None),
    ("classifiers.accuracy", classifiers.pairwise_accuracy, _model_arg, None),
    ("classifiers.relation_matrix", classifiers.build_relation_matrix, _model_arg, None),
    ("classifiers.score", classifiers.predict_batch, _model_arg, _score_counts),
    ("reconstruction.greedy", reconstruction.greedy_reconstruct, None, _group_counts),
    ("reconstruction.detect", reconstruction.detect, _model_arg, None),
    ("evaluation.evaluate", evaluation.evaluate, None, None),
    ("characterization.characterize", characterization.characterize_corpus, None, None),
)


class Tracer:
    """Spans as tuples ``(id, parent, name, kind, start, end, counts)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str, str | None]] = []
        self._origin = time.perf_counter()

    def _open(self, name: str, kind: str | None) -> tuple[int, int, str | None]:
        parent = self._stack[-1] if self._stack else (-1, "", None)
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on close
        self._stack.append((span_id, name, kind if kind is not None else parent[2]))
        return span_id, parent[0], self._stack[-1][2]

    def _close(self, span_id, parent, name, kind, start, counts) -> None:
        self._stack.pop()
        end = time.perf_counter() - self._origin
        self.spans[span_id] = (span_id, parent, name, kind, start, end, counts)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a round, a setup)."""
        span_id, parent, kind = self._open(name, None)
        start = time.perf_counter() - self._origin
        try:
            yield
        finally:
            self._close(span_id, parent, name, kind, start, {})

    def wrap(self, name, fn, kind_of, read_result):
        def traced(*args, **kwargs):
            span_id, parent, kind = self._open(name, kind_of(args, kwargs) if kind_of else None)
            start = time.perf_counter() - self._origin
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if read_result is not None:
                    own_kind, counts = read_result(args, result)
                    kind = own_kind or kind
                return result
            finally:
                self._close(span_id, parent, name, kind, start, counts)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function wherever a fformation module holds it."""
        wrappers = {id(layer[1]): (layer[1], self.wrap(*layer)) for layer in LAYERS}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("fformation"):
                continue
            containers = [vars(module)]
            containers += [v for v in vars(module).values() if isinstance(v, dict)]
            for container in containers:
                for key, value in list(container.items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and value is entry[0]:
                        container[key] = entry[1]
                        patched.append((container, key, value))
        try:
            yield
        finally:
            for container, key, value in patched:
                container[key] = value

    def layer_metrics(self, units: int, frames_per_pass: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals per traced unit (one setup plus one round).

        ``classifiers.score`` spans count only inside relation-matrix
        builds, so the accuracy passes of ``fformation train`` stay out.
        Layers that a workload never calls report 0; so does the p90 of
        per-frame detection time when a pass holds fewer than
        ``P90_MIN_FRAMES`` frames.
        """
        names = {s[0]: s[2] for s in self.spans}
        seconds = defaultdict(float)  # keyed (layer, kind); kind "*" sums all kinds
        counts = defaultdict(int)  # keyed (layer, count, kind)
        detect_ms = defaultdict(list)
        for _, parent, name, kind, start, end, extra in self.spans:
            if name == "classifiers.score" and names.get(parent) != "classifiers.relation_matrix":
                continue
            for k in {kind, "*"}:
                seconds[(name, k)] += (end - start) / units
                for key, value in extra.items():
                    counts[(name, key, k)] += value / units
            if name == "reconstruction.detect":
                detect_ms[kind].append(1000.0 * (end - start))

        out: dict[str, tuple[float, str]] = {}
        for layer in ("synthetic.generate", "datasets.save", "datasets.load",
                      "features.deconstruct", "evaluation.evaluate",
                      "characterization.characterize"):
            out[f"{layer}_s"] = (seconds[(layer, "*")], "s")
        out["features.pairs"] = (counts[("features.deconstruct", "pairs", "*")], "count")
        out["features.positive_pairs"] = (
            counts[("features.deconstruct", "positive", "*")], "count")
        out["classifiers.pairs_scored"] = (counts[("classifiers.score", "pairs", "*")], "count")
        for kind in KINDS:
            for layer in ("persistence.save", "persistence.load", "classifiers.train",
                          "classifiers.accuracy", "classifiers.relation_matrix",
                          "classifiers.score", "reconstruction.greedy"):
                out[f"{layer}_s.{kind}"] = (seconds[(layer, kind)], "s")
            out[f"classifiers.positive_labels.{kind}"] = (
                counts[("classifiers.score", "positive", kind)], "count")
            for key in ("groups", "ungrouped"):
                out[f"reconstruction.{key}.{kind}"] = (
                    counts[("reconstruction.greedy", key, kind)], "count")
            times = detect_ms[kind]
            p90 = 0.0
            if times and frames_per_pass >= P90_MIN_FRAMES:
                p90 = statistics.quantiles(times, n=10)[-1]
            out[f"reconstruction.detect_ms_p50.{kind}"] = (
                statistics.median(times) if times else 0.0, "ms")
            out[f"reconstruction.detect_ms_p90.{kind}"] = (p90, "ms")
        return out

    def self_seconds(self) -> dict[str, float]:
        """Each span name's total duration minus that of its direct children."""
        own = defaultdict(float)
        by_id = {s[0]: s for s in self.spans}
        for _, parent, name, _, start, end, _ in self.spans:
            own[name] += end - start
            if parent in by_id:
                own[by_id[parent][2]] -= end - start
        return dict(sorted(own.items()))

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["self_s"] = self.self_seconds()
        doc["span_fields"] = ["id", "parent", "name", "kind", "start_s", "end_s", "counts"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
