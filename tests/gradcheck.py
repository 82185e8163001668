"""Finite-difference gradient checking for the test suite.

``grad_check`` drives any objective with ``params()`` and
``objective_loss(x, target, compute_grads)``: ``MseObjective`` puts an MSE
head on a layer stack, ``ModelObjective`` takes a model's training loss.
"""

import numpy as np
from dataclasses import dataclass, field

from polarlab.nn import mse_loss, zero_grads


class MseObjective:
    """Wraps a stack with an MSE head so grad_check can drive it.

    ``normalizer`` defaults to the number of output features per sample.
    """

    def __init__(self, stack, normalizer=None):
        self.stack = stack
        self.normalizer = normalizer

    def params(self):
        return self.stack.params()

    def objective_loss(self, x, target, compute_grads=False):
        pred = self.stack.forward(x, keep=compute_grads)
        norm = self.normalizer or int(np.prod(pred.shape[1:] or pred.shape))
        loss, dpred = mse_loss(pred, target, norm)
        if compute_grads:
            zero_grads(self.stack.params())
            self.stack.backward(dpred)
        return loss


class ModelObjective:
    """A model's total training loss, with ``target`` the pair
    ``(s_true, u_true)``."""

    def __init__(self, model):
        self.model = model

    def params(self):
        return self.model.params()

    def objective_loss(self, x, target, compute_grads=False):
        s_true, u_true = target
        return self.model.loss(x, s_true, u_true, compute_grads=compute_grads).total


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: int
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)


def grad_check(objective, x, target, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients against central finite differences.

    ``objective`` must expose ``params()`` and
    ``objective_loss(x, target, compute_grads)``; with ``compute_grads``
    the call must populate every parameter's ``grad``. The error for each
    component is ``|analytic - numeric| / max(|analytic| + |numeric|, 1e-3)``
    and the report carries the maximum over all components.
    """
    params = objective.params()
    zero_grads(params)
    objective.objective_loss(x, target, compute_grads=True)
    analytic = [p.grad.copy() for p in params]

    report = GradCheckReport(0.0, "", -1, True, tolerance)
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            hi = objective.objective_loss(x, target)
            flat[j] = keep - step
            lo = objective.objective_loss(x, target)
            flat[j] = keep
            numeric = (hi - lo) / (2.0 * step)
            rel = abs(gflat[j] - numeric) / max(abs(gflat[j]) + abs(numeric), 1e-3)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = p.name
                report.worst_index = j
    report.passed = report.max_rel_error < tolerance
    report.details = {"step": step, "n_params": sum(p.value.size for p in params)}
    return report
