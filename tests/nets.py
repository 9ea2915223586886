"""Small networks that only tests build. They draw their weights from the
rng in layer order, so a given seed gives the same weights on every run.
wn_kernel reads back the kernel that a weight-norm convolution applies."""

import numpy as np

from sgdph import nn
from sgdph.tensor import Rng


def mlp_bn2(rng, *, in_shape, n_classes, dtype=np.float64) -> nn.Model:
    """Two hidden BatchNorm layers: interior 1-D blocks with off-diagonal mass."""
    d = int(np.prod(in_shape))
    layers = [
        nn.Linear("fc1", d, 8, rng, dtype),
        nn.BatchNorm("bn1", 8, dtype),
        nn.ReLU(),
        nn.Linear("fc2", 8, 6, rng, dtype),
        nn.BatchNorm("bn2", 6, dtype),
        nn.ReLU(),
        nn.Linear("fc3", 6, n_classes, rng, dtype),
    ]
    return nn.Model("mlp-bn2", layers)


def mlp_plain(rng, *, in_shape, n_classes, dtype=np.float64) -> nn.Model:
    """Dense parameters only: sgdph and sgdm take the same steps on it."""
    d = int(np.prod(in_shape))
    layers = [
        nn.Linear("fc1", d, 16, rng, dtype),
        nn.ReLU(),
        nn.Linear("fc2", 16, n_classes, rng, dtype),
    ]
    return nn.Model("mlp-plain", layers)


TEST_NETS = {"mlp-bn2": mlp_bn2, "mlp-plain": mlp_plain}


def wn_kernel(v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The kernel W_i = gamma_i V_i/|V_i| that WNConv.forward_np convolves
    with, read back through that method. A unit impulse at the centre of
    input channel i comes out as W[:, i] turned half a turn, and every other
    product in its sums is a zero, so W keeps its bits."""
    cout, cin, k, _ = v.shape
    layer = nn.WNConv("wn", cin, cout, k, Rng(0))
    x = np.zeros((cin, cin, k, k), v.dtype)
    x[np.arange(cin), np.arange(cin), k // 2, k // 2] = 1.0
    values = {layer.v.name: v, layer.gamma.name: gamma, layer.bias.name: np.zeros(cout, v.dtype)}
    y = layer.forward_np(x, values, training=False)
    return y.swapaxes(0, 1)[:, :, ::-1, ::-1]
