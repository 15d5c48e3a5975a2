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


def hessian_scale(arch, theta, batch):
    """A bound on any one row's term in an entry of the closed-form Hessian,
    which the rounding of models.hessian is counted in.

    A quadratic term is x_k·x_l. A classifier's terms are products of two
    Jacobian entries, [input; 1]_k·1[z_j > 0]·W2[j, c] or [input; 1]_k,
    weighted by softmax entries of at most 1, and the MLP's cross term
    [x; 1]_k weighted by |δ_c| <= 1. An entry of H can be far smaller than
    its terms, where p_i is near one-hot and the two halves of A_i cancel.
    """
    if arch.kind == "quadratic":
        return float((batch.inputs**2).max())
    _, blocks, inputs = _forward(arch, theta, batch.inputs)
    u = max([1.0, *(float(np.abs(a).max()) for a in inputs)])
    w = max([1.0, *(float(np.abs(wb[:-1]).max()) for wb in blocks[1:])])
    return (u * w) ** 2
