"""The registry of classifier kinds: each canonical name and its module.

A kind is one module and one entry here. The module defines its params
type and four functions, which training, scoring and model files call
through ``REGISTRY`` without branching on the kind:

- ``fit(Xs, y, hyperparams, seed)``: params from standardized features;
- ``scores(params, Xs)``: each row's positive-class score, from the
  params alone. ``Xs`` is the finite, C-ordered (n, 2) float64 array of
  standardized rows that ``predict_batch`` builds and checks, the one
  place where rows are converted and checked; a kind converts and checks
  nothing again;
- ``to_params(params)``: the ``params`` object of a model document;
- ``from_params(raw, hyperparams)``: params from that object, checked as
  untrusted input (ModelFormatError).
"""

from . import knn, logreg, trees

REGISTRY = {"weighted_knn": knn, "bagged_trees": trees, "logistic_regression": logreg}
