"""
End-to-end detection on synthetic scenes
========================================

Generate labeled scenes, train the three classifier kinds on pairwise
samples, rebuild whole groups with greedy reconstruction, and score the
detections with the tolerant matching protocol at T = 2/3.
"""

from fractions import Fraction

from fformation import (
    SynthConfig,
    detect,
    evaluate,
    format_report,
    generate_synthetic,
    pairwise_accuracy,
    pairwise_deconstruct,
    train,
)

# Two disjoint corpora: one to learn from, one to score on. The seeds make
# the demo reproducible run-to-run.
train_corpus = generate_synthetic(SynthConfig(n_frames=150, seed=1))
eval_corpus = generate_synthetic(SynthConfig(n_frames=50, seed=2))

# Each corpus as one table of labeled pairs, as `fformation train` builds it.
train_pairs = pairwise_deconstruct(train_corpus.frames)
eval_pairs = pairwise_deconstruct(eval_corpus.frames)
print(f"{len(train_pairs)} training pairs, {len(eval_pairs)} evaluation pairs")

truths = [(f.frame_id, f.truth) for f in eval_corpus.frames]

for kind in ("knn", "trees", "logreg"):
    model = train(train_pairs, kind=kind, seed=0)

    # Pairwise accuracy measures the classifier alone; the F1 below measures
    # the whole pipeline after reconstruction.
    acc = pairwise_accuracy(model, eval_pairs)

    detections = [(f.frame_id, detect(model, f)) for f in eval_corpus.frames]
    report = evaluate(detections, truths, Fraction(2, 3))
    print(f"\n=== {kind}: pairwise accuracy {acc:.3f}, group F1 {report.f1:.3f} ===")

# Show the full per-frame report for the last model.
print()
print("\n".join(format_report(report).splitlines()[-6:]))
