"""SGD-PH: SGD with a partial Hessian.

Channel-wise 1-D parameters (batch-norm scale/shift, weight-norm lengths
and biases) take damped Newton steps built from an exactly extracted
diagonal-Hessian vector; every other parameter takes plain SGD with
momentum. A finite-difference oracle suite cross-checks the extraction at
desk scale.
"""

__version__ = "0.1.0"
