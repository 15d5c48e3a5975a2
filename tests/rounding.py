"""The unit in which tests count the rounding of the model kernels.

A test that compares two computations of one mean gradient or of one batch's
losses (a stacked call against one call per theta, say) bounds their
difference by a few ulps of the magnitude scales below, not of the largest
entry: an entry can be the small difference of large terms.
"""

import numpy as np

from oscisel.models import _forward


def rounding_scales(arch, theta, batch):
    """(gradient, loss) magnitudes that the rounding of one theta's mean
    gradient and losses is counted in.

    Each is the largest value of the same sums with every input, weight and
    residual replaced by its magnitude, and every softmax-minus-onehot entry
    by 1: an entry of the picked class is p - 1, formed by cancellation when
    p is near 1, so its rounding is of the order of one ulp of 1, not of the
    entry. Neither scale is below the largest entry it bounds.
    """
    x, m = np.abs(batch.inputs), batch.size
    if arch.kind == "quadratic":
        terms = x @ np.abs(theta) + np.abs(batch.labels)  # bounds |x·theta - y|
        return (x.T @ terms).max() / m, (terms**2).max()
    scores, blocks, inputs = _forward(arch, np.abs(theta), x)
    delta, grad = np.ones_like(scores), 0.0
    for wb, a in zip(reversed(blocks), reversed(inputs)):
        grad = max(grad, (a.T @ delta).max() / m, delta.max())  # weights, bias
        delta = delta @ np.abs(wb[:-1]).T
    return grad, max(1.0, scores.max())
