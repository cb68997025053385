"""The finite-difference oracle over the package's differentiable losses."""
import numpy as np

from spcl import Tensor, finite_diff_check, supervised_loss
from spcl.verify import check_gradients

rng = np.random.default_rng(0)
w = Tensor(rng.standard_normal((4, 3)), requires_grad=True, name="w")
x = Tensor(rng.standard_normal((5, 4)))
target = rng.integers(0, 3, size=5)

report = finite_diff_check(lambda q: supervised_loss(x @ q, target), [w])
print("toy composite:", report)

family = check_gradients(configs=3)
print("loss suite   :", "PASS" if family.passed else "FAIL", "-", family.detail)
