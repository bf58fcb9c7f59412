"""The registry of classifier kinds: each canonical name and its module.

A kind is one module and one entry here. The module defines its params
type and four functions, which training, scoring and model files call
through ``REGISTRY`` without branching on the kind:

- ``fit(Xs, y, hyperparams, seed)``: params from standardized features;
- ``scores(params, hyperparams, Xs)``: each row's positive-class score;
- ``to_params(params)``: the ``params`` object of a model document;
- ``from_params(raw, hyperparams)``: params from that object, checked as
  untrusted input (ModelFormatError).
"""

from . import knn, logreg, trees

REGISTRY = {"weighted_knn": knn, "bagged_trees": trees, "logistic_regression": logreg}
