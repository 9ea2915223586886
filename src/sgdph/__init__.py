"""SGD-PH: SGD with a partial Hessian.

Channel-wise 1-D parameters (batch-norm scale/shift, weight-norm lengths
and biases) take damped Newton steps built from the exactly extracted row
sums H_pp·1 of their Hessian blocks; every other parameter takes plain SGD
with momentum. The row sums equal the diagonal only where a block is
diagonal, as for a BatchNorm directly in front of an elementwise loss. A
finite-difference oracle suite cross-checks the extraction at desk scale.
"""

__version__ = "0.1.0"
