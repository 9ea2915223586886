"""Tape gradients and second-sweep curvature against finite differences
and closed forms."""

import ast
import gc
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdph import autodiff as ad
from sgdph import cli, nn, oracle, tensor
from sgdph.data import gen_digits
from sgdph.tensor import Rng, ShapeMismatchError


def fd_grad(f, x, h=1e-6):
    """Central differences of a scalar function of one flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.size)
    for i in range(x.size):
        xp, xm = x.ravel().copy(), x.ravel().copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g.reshape(x.shape)


def grad_of(build, x0):
    """Runs build(leaf) -> scalar Variable on a fresh tape, returns the
    leaf's gradient."""
    graph = ad.Graph()
    leaf = graph.variable(np.asarray(x0, dtype=np.float64))
    loss = build(leaf)
    grads = ad.backward(loss)
    return grads[leaf.id]


def hdiag_of(build, x0):
    graph = ad.Graph()
    leaf = graph.variable(np.asarray(x0, dtype=np.float64))
    loss = build(leaf)
    ad.backward(loss, retain=[leaf])
    return ad.hessian_diag_1d(loss, leaf)


ELEMENTWISE_CHAINS = [
    ("exp", lambda p: ad.sum_all(ad.exp(p))),
    ("log", lambda p: ad.sum_all(ad.log(ad.cadd(ad.mul(p, p), 1.0)))),
    ("sqrt", lambda p: ad.sum_all(ad.sqrt(ad.cadd(ad.mul(p, p), 1.0)))),
    ("recip", lambda p: ad.sum_all(ad.recip(ad.cadd(ad.mul(p, p), 2.0)))),
    ("mul-recip", lambda p: ad.sum_all(ad.mul(p, ad.recip(ad.cadd(ad.mul(p, p), 2.0))))),
    ("negate", lambda p: ad.sum_all(ad.add(ad.cmul(p, -1.0), ad.cmul(ad.mul(p, p), -1.0)))),
]


def flip_np(w):
    """A [Cout,Cin,kh,kw] kernel turned half a turn, its channel axes swapped."""
    return w.swapaxes(0, 1)[:, :, ::-1, ::-1]


# each op of the convolution family, and conv2d's input adjoint built from
# two of them: its tape builder, its numpy reference, and its operands out
# of an input x, a kernel w and an output adjoint g
CONV_FAMILY = {
    "conv2d": (ad.conv2d, tensor.conv2d, ("x", "w")),
    "conv2d_flip": (lambda g, w: ad.conv2d(g, ad.flip(w)),
                    lambda g, w: tensor.conv2d(g, flip_np(w)), ("g", "w")),
    "conv_w": (lambda x, g: ad.conv_w(x, g, 3, 3), lambda x, g: tensor.conv_w(x, g, 3, 3),
               ("x", "g")),
    "flip": (ad.flip, flip_np, ("w",)),
}
OPERAND_SHAPES = {"x": (2, 2, 5, 5), "w": (3, 2, 3, 3), "g": (2, 3, 5, 5)}


def chscale_np(x, s):
    """x[:, c] * s[c], channels on axis 1."""
    return np.moveaxis(np.moveaxis(x, 1, -1) * s, -1, 1)


def chdot_np(x, y):
    """The sums of x*y over every axis but 1."""
    return np.sum(x * y, axis=tuple(i for i in range(x.ndim) if i != 1))


def chshift_np(x, b):
    """x[:, c] + b[c], channels on axis 1."""
    return np.moveaxis(np.moveaxis(x, 1, -1) + b, -1, 1)


# each channel-wise op, and chdot's square: its tape builder, its numpy
# reference, and its operands out of two activations x and y and the
# C-vectors s and b
CHANNEL_PAIR = {
    "chshift": (ad.chshift, chshift_np, ("x", "b")),
    "chscale": (ad.chscale, chscale_np, ("x", "s")),
    "chdot": (ad.chdot, chdot_np, ("x", "y")),
    "chdot_square": (lambda x: ad.chdot(x, x), lambda x: chdot_np(x, x), ("x",)),
}
# [N,C] and [N,C,H,W] activations of C = 3 channels
CHANNEL_LAYOUTS = {"nc": (4, 3), "nchw": (2, 3, 4, 5)}


def assert_vjp_matches_fd(ad_op, np_op, operands, arg):
    """The tape gradient of 0.5*|op(operands)|^2 in operands[arg], against
    central differences of the numpy reference."""
    def build(p):
        args = [p if i == arg else p.graph.constant(v) for i, v in enumerate(operands)]
        y = ad_op(*args)
        return ad.cmul(ad.sum_all(ad.mul(y, y)), 0.5)

    def f(v):
        args = [v if i == arg else u for i, u in enumerate(operands)]
        return float(0.5 * np.sum(np_op(*args) ** 2))

    g = grad_of(build, operands[arg])
    np.testing.assert_allclose(g, fd_grad(f, operands[arg], h=1e-5), rtol=0, atol=1e-6)


def assert_row_sums_match_fd(build, s0, h=1e-5):
    """The curvature H @ 1 of build(leaf) at s0, against central differences
    of the summed gradient."""
    rows = np.zeros(s0.size)
    for i in range(s0.size):
        sp, sm = s0.copy(), s0.copy()
        sp[i] += h
        sm[i] -= h
        rows[i] = np.sum(grad_of(build, sp) - grad_of(build, sm)) / (2 * h)
    np.testing.assert_allclose(hdiag_of(build, s0), rows, rtol=1e-7, atol=1e-7)


def channel_operands(names, layout, dtype, seed):
    rng = Rng(seed)
    shapes = {"x": CHANNEL_LAYOUTS[layout], "y": CHANNEL_LAYOUTS[layout], "s": (3,), "b": (3,)}
    return [rng.normal(shapes[name]).astype(dtype) for name in names]


class TestFirstOrder:
    def test_square_hand_value(self):
        g = grad_of(lambda p: ad.sum_all(ad.mul(p, p)), [3.0])
        np.testing.assert_array_equal(g, [6.0])

    def test_relu_kink_mask(self):
        g = grad_of(lambda p: ad.sum_all(ad.relu(p)), [-1.0, 2.0])
        np.testing.assert_array_equal(g, [0.0, 1.0])

    def test_leaf_used_twice_accumulates(self):
        g = grad_of(lambda p: ad.add(ad.sum_all(ad.mul(p, p)), ad.sum_all(p)), [1.0, 4.0])
        np.testing.assert_array_equal(g, [3.0, 9.0])

    def test_self_add(self):
        g = grad_of(lambda p: ad.sum_all(ad.add(p, p)), [5.0, 7.0])
        np.testing.assert_array_equal(g, [2.0, 2.0])

    def test_unreached_leaf_gets_zeros(self):
        graph = ad.Graph()
        a = graph.variable(np.array([1.0, 2.0]))
        b = graph.variable(np.array([3.0]))
        grads = ad.backward(ad.sum_all(ad.mul(a, a)))
        np.testing.assert_array_equal(grads[b.id], [0.0])

    @pytest.mark.parametrize("name,build", ELEMENTWISE_CHAINS)
    def test_elementwise_chain_vs_fd(self, name, build):
        # seeded by the case's position: str hashes are salted per process
        x0 = Rng([n for n, _ in ELEMENTWISE_CHAINS].index(name)).normal((6,))

        def f(x):
            graph = ad.Graph()
            return float(build(graph.variable(x)).value)

        g = grad_of(build, x0)
        np.testing.assert_allclose(g, fd_grad(f, x0), rtol=0, atol=1e-8)

    def test_matmul_transpose_vs_fd(self):
        rng = Rng(7)
        a0 = rng.normal((3, 4))
        b = rng.normal((4, 2))

        def build(p):
            graph = p.graph
            return ad.sum_all(ad.mul(y := ad.matmul(p, graph.constant(b)), y))

        def f(x):
            return float(np.sum((x @ b) ** 2))

        g = grad_of(build, a0)
        np.testing.assert_allclose(g, fd_grad(f, a0), rtol=0, atol=1e-7)

    def test_broadcast_sum_adjoint(self):
        # each of the 5 broadcast copies contributes one unit
        g = grad_of(lambda p: ad.sum_all(ad.broadcast_to(ad.reshape(p, (1, 3)), (5, 3))),
                    [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g, [5.0, 5.0, 5.0])

    def test_centring_adjoint(self):
        # BatchNorm's centring, x + (-1/n) sum_n x: the adjoint of a weighted
        # sum is the weight minus its column mean
        w = np.array([[1.0, 2.0, 3.0], [5.0, 8.0, 13.0]])

        def build(p):
            a = ad.reshape(p, (2, 3))
            return ad.sum_all(ad.cmul(ad.chshift(a, ad.cmul(ad.sum_axes(a, (0,)), -0.5)), w))

        g = grad_of(build, np.arange(6.0))
        np.testing.assert_array_equal(g, [-2.0, -3.0, -5.0, 2.0, 3.0, 5.0])

    @pytest.mark.parametrize("op,wrt", [(op, v) for op, (_, _, names) in CONV_FAMILY.items()
                                        for v in names])
    def test_conv_family_vs_fd(self, op, wrt):
        # each convolution op as a function of each operand
        rng = Rng(11)
        ad_op, np_op, names = CONV_FAMILY[op]
        operands = [rng.normal(OPERAND_SHAPES[name]) for name in names]
        assert_vjp_matches_fd(ad_op, np_op, operands, names.index(wrt))

    @pytest.mark.parametrize("layout", CHANNEL_LAYOUTS)
    @pytest.mark.parametrize("op,wrt", [(op, v) for op, (_, _, names) in CHANNEL_PAIR.items()
                                        for v in names])
    def test_channel_pair_vs_fd(self, op, wrt, layout):
        # each op of the channel pair as a function of each operand
        ad_op, np_op, names = CHANNEL_PAIR[op]
        operands = channel_operands(names, layout, np.float64, 13)
        assert_vjp_matches_fd(ad_op, np_op, operands, names.index(wrt))


class TestChannelPair:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", CHANNEL_LAYOUTS)
    @pytest.mark.parametrize("op", CHANNEL_PAIR)
    def test_values_match_numpy(self, op, layout, dtype):
        ad_op, np_op, names = CHANNEL_PAIR[op]
        operands = channel_operands(names, layout, dtype, 17)
        graph = ad.Graph()
        out = ad_op(*[graph.variable(v) for v in operands])
        ref = np_op(*operands)
        assert out.shape == ref.shape and out.dtype == dtype
        rtol = 1e-5 if dtype == np.float32 else 1e-13
        np.testing.assert_allclose(out.value, ref, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("layout", CHANNEL_LAYOUTS)
    def test_curvature_through_both_ops_vs_fd_of_gradient(self, layout):
        # L(s) = sum(chdot(chscale(x, s), chscale(y, s*s))^2) couples the
        # channels through nothing but the pair, so its Hessian row sums
        # differentiate every vjp of both ops once more
        x0, y0 = channel_operands(("x", "y"), layout, np.float64, 19)

        def build(p):
            graph = p.graph
            t = ad.chdot(ad.chscale(graph.constant(x0), p),
                         ad.chscale(graph.constant(y0), ad.mul(p, p)))
            return ad.sum_all(ad.mul(t, t))

        assert_row_sums_match_fd(build, np.array([0.7, -1.1, 0.4]))

    @pytest.mark.parametrize("layout", CHANNEL_LAYOUTS)
    def test_curvature_through_the_shift_vs_fd_of_gradient(self, layout):
        # L(s) = sum(chdot(chshift(chscale(x, s), s*s), chshift(y, s))^2):
        # the shift's vjp into s, a sum over the batch, is differentiated
        # once more, and so is the adjoint it hands on to the scale
        x0, y0 = channel_operands(("x", "y"), layout, np.float64, 23)

        def build(p):
            graph = p.graph
            t = ad.chdot(ad.chshift(ad.chscale(graph.constant(x0), p), ad.mul(p, p)),
                         ad.chshift(graph.constant(y0), p))
            return ad.sum_all(ad.mul(t, t))

        assert_row_sums_match_fd(build, np.array([0.7, -1.1, 0.4]))

    def test_shape_errors(self):
        graph = ad.Graph()
        x3 = graph.variable(np.ones((2, 3, 4)))
        x = graph.variable(np.ones((2, 3, 4, 5)))
        with pytest.raises(ShapeMismatchError, match=r"chscale.*\(2, 3, 4\)"):
            ad.chscale(x3, graph.variable(np.ones(3)))
        with pytest.raises(ShapeMismatchError, match=r"\(3,\).*\(2,\)"):
            ad.chscale(x, graph.variable(np.ones(2)))
        with pytest.raises(ShapeMismatchError, match=r"chdot.*\(2, 3, 4\)"):
            ad.chdot(x3, x3)
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3, 4, 5\) and \(2, 3, 4, 4\)"):
            ad.chdot(x, graph.variable(np.ones((2, 3, 4, 4))))
        with pytest.raises(ShapeMismatchError, match=r"chshift.*\(2, 3, 4\)"):
            ad.chshift(x3, graph.variable(np.ones(3)))
        with pytest.raises(ShapeMismatchError, match=r"chshift.*\(3,\).*\(4,\)"):
            ad.chshift(x, graph.variable(np.ones(4)))


class TestSecondSweep:
    def test_square_curvature(self):
        h = hdiag_of(lambda p: ad.sum_all(ad.mul(p, p)), [3.0])
        np.testing.assert_array_equal(h, [2.0])

    def test_diagonal_quadratic(self):
        a = np.array([3.0, 5.0])

        def build(p):
            return ad.cmul(ad.sum_all(ad.cmul(ad.mul(p, p), a)), 0.5)

        np.testing.assert_array_equal(hdiag_of(build, [0.7, -1.1]), a)

    def test_coupled_quadratic_gives_row_sums(self):
        # L = (x0 + x1)^2 / 2 has Hessian [[1,1],[1,1]]; the extraction is
        # H @ 1 = [2,2], not the diagonal [1,1]
        def build(p):
            s = ad.sum_all(p)
            return ad.cmul(ad.mul(s, s), 0.5)

        np.testing.assert_array_equal(hdiag_of(build, [0.3, 0.9]), [2.0, 2.0])

    def test_dense_matrix_row_sums_exact(self):
        rng = Rng(23)
        a = rng.normal((5, 5))
        a = 0.5 * (a + a.T)

        def build(p):
            col = ad.reshape(p, (5, 1))
            ap = ad.matmul(p.graph.constant(a), col)
            return ad.cmul(ad.sum_all(ad.mul(col, ap)), 0.5)

        h = hdiag_of(build, rng.normal((5,)))
        np.testing.assert_allclose(h, a @ np.ones(5), rtol=1e-12, atol=1e-12)

    def test_relu_kink_second_derivative_zero(self):
        # d2/dp2 of relu(p)^2/2 is relu'(p)^2 pointwise (relu'' = 0)
        def build(p):
            r = ad.relu(p)
            return ad.cmul(ad.sum_all(ad.mul(r, r)), 0.5)

        np.testing.assert_array_equal(hdiag_of(build, [-1.0, 2.0]), [0.0, 1.0])

    def test_exp_curvature(self):
        x0 = np.array([0.2, -0.4, 1.1])
        h = hdiag_of(lambda p: ad.sum_all(ad.exp(p)), x0)
        np.testing.assert_allclose(h, np.exp(x0), rtol=1e-14, atol=0)

    def test_quartic_vs_fd_of_gradient(self):
        def build(p):
            p2 = ad.mul(p, p)
            return ad.sum_all(ad.mul(p2, p2))

        x0 = np.array([0.5, -1.2, 2.0])

        def grad_at(x):
            return grad_of(build, x)

        fd_rows = np.zeros(3)
        h = 1e-5
        for i in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fd_rows[i] = np.sum(grad_at(xp) - grad_at(xm)) / (2 * h)
        np.testing.assert_allclose(hdiag_of(build, x0), fd_rows, rtol=0, atol=1e-5)

    def test_repeated_extraction_is_stable(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([0.4, 1.3]))
        loss = ad.sum_all(ad.mul(ad.mul(leaf, leaf), leaf))
        ad.backward(loss, retain=[leaf])
        first = ad.hessian_diag_1d(loss, leaf)
        second = ad.hessian_diag_1d(loss, leaf)
        np.testing.assert_array_equal(first, second)

    def test_extraction_does_not_grow_tape(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([0.4, 1.3]))
        loss = ad.sum_all(ad.mul(leaf, leaf))
        ad.backward(loss, retain=[leaf])
        before = len(graph.nodes)
        ad.hessian_diag_1d(loss, leaf)
        assert len(graph.nodes) == before

    def test_parameter_absent_from_loss_gives_zeros(self):
        graph = ad.Graph()
        used = graph.variable(np.array([1.0]))
        unused = graph.variable(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.mul(used, used))
        ad.backward(loss, retain=[used, unused])
        np.testing.assert_array_equal(ad.hessian_diag_1d(loss, unused), [0.0, 0.0])

    def test_loss_of_constants_admits_no_node(self):
        # no leaves give an empty cone: the sweep fires no vjp
        graph = ad.Graph()
        c = graph.constant(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.exp(c))
        assert ad._cone(graph, [], loss.id) == set()
        assert ad.backward(loss, retain=[]) == {}
        assert graph.retained == {}


def small_cnn_loss(model_name, dtype=np.float32):
    """A model on a 4-image batch, its tape up to the loss, the parameter
    env, the loss, and the first tape id of each layer's forward nodes (plus
    the loss's first id at the end)."""
    model = nn.build_model(model_name, Rng(0), in_shape=(1, 6, 6), n_classes=3, dtype=dtype)
    x = Rng(1).normal((4, 1, 6, 6)).astype(dtype)
    graph = ad.Graph()
    env = model.bind(graph)
    h = graph.constant(x)
    starts = []
    for layer in model.layers:
        starts.append(len(graph.nodes))
        h = layer.forward_v(h, env)
    starts.append(len(graph.nodes))
    loss = nn.softmax_cross_entropy(h, np.array([0, 1, 2, 0]))
    return model, graph, env, loss, starts


def channelwise(model, env):
    """The leaves of the model's 1-D parameters, in model order."""
    return [env[p.name] for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]


def small_cnn_tape(model_name):
    """small_cnn_loss in f32, with the differentiable backward of every
    1-D parameter retained."""
    model, graph, env, loss, starts = small_cnn_loss(model_name)
    ad.backward(loss, retain=channelwise(model, env))
    return model, graph, env, loss, starts


def record_fired(graph, fired):
    """Wraps every recorded vjp so that each call appends (node, parent
    index). The two edges of mul(a, a) keep one shared wrapper, so the sweep
    still builds g*a once for both; add's two _pass edges get one wrapper
    each, which returns g either way."""
    def counted(node, i, f):
        def wrapped(g):
            fired.append((node, i))
            return f(g)

        return wrapped

    for node in graph.nodes:
        wrapped = []
        for i, (p, f) in enumerate(zip(node.parents, node.vjps)):
            shared = i and f is node.vjps[i - 1] and p is node.parents[i - 1]
            wrapped.append(wrapped[-1] if shared else counted(node, i, f))
        node.vjps = tuple(wrapped)


def full_mask_hdiag(graph, p):
    """The second sweep with adjoints admitted into every node that depends
    on any leaf, as the first backward pass admits them: no cone pruning."""
    admitted = set()
    for v in graph.nodes:
        if v.op == "leaf" or any(q.id in admitted for q in v.parents):
            admitted.add(v.id)
    adj = ad._sweep(graph.retained[p.id], admitted)
    return np.array(adj[p.id].value)


class TestConePruning:
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_cone_sweep_bitwise_equals_full_sweep(self, model_name):
        model, graph, env, loss, _ = small_cnn_tape(model_name)
        one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
        assert len(one_d) == 4
        for name in one_d:
            h = ad.hessian_diag_1d(loss, env[name])
            ref = full_mask_hdiag(graph, env[name])
            assert h.dtype == ref.dtype == np.float32
            assert h.tobytes() == ref.tobytes(), name

    def test_sweep_fires_only_inside_the_cone(self):
        _, graph, env, loss, starts = small_cnn_tape("cnn-bn")
        fired = []
        record_fired(graph, fired)
        p = env["bn2.beta"]
        ad.hessian_diag_1d(loss, p)
        # layers: conv1, bn1, relu, conv2, bn2, ...
        upstream = range(starts[0], starts[2])
        assert fired and not [n.id for n, _ in fired if n.id in upstream]
        assert any(starts[4] <= n.id < starts[5] for n, _ in fired)

        def depends_on_p(node):
            todo, seen = [node], set()
            while todo:
                v = todo.pop()
                if v is p:
                    return True
                if v.id not in seen:
                    seen.add(v.id)
                    todo.extend(v.parents)
            return False

        for node, i in fired:
            assert depends_on_p(node.parents[i]), (node, i)

        # the unpruned sweep does fire the upstream nodes, so the counter sees them
        fired.clear()
        full_mask_hdiag(graph, p)
        assert [n.id for n, _ in fired if n.id in upstream]


class TestConvolutionTape:
    def test_cnn_wn_curvature_through_the_kernel_adjoint(self):
        # a weight-norm length reaches the loss only through the kernel, so
        # its sweep differentiates the recorded kernel adjoint conv_w
        model, graph, env, loss, _ = small_cnn_loss("cnn-wn", np.float64)
        ad.backward(loss, retain=channelwise(model, env))
        fired = []
        record_fired(graph, fired)
        x = Rng(1).normal((4, 1, 6, 6))
        lossfn = oracle.model_lossfn(model, x, "ce", np.array([0, 1, 2, 0]))
        for name in ("conv1.gamma", "conv2.gamma"):
            h = ad.hessian_diag_1d(loss, env[name])
            rows = oracle.fd_hessian_block_1d(lossfn, model.values(), name).sum(axis=1)
            assert oracle.max_rel_err(h, rows) <= 1e-5, name
        assert {"conv2d", "flip", "conv_w"} <= {node.op for node in graph.nodes}
        assert {"conv2d", "conv_w"} <= {node.op for node, _ in fired}
        # conv1.gamma's sweep crosses conv2's recorded input adjoint
        # conv2d(g, flip(w)); flip's own edge leads only to conv2's kernel,
        # which neither sweep reaches, so it never fires
        assert any(node.op == "conv2d" and node.parents[1].op == "flip" for node, _ in fired)

    def test_flip_is_a_view_and_its_own_vjp(self):
        w = Rng(2).normal((3, 2, 3, 5))
        graph = ad.Graph()
        k = graph.variable(w)
        f = ad.flip(k)
        assert f.shape == (2, 3, 3, 5)
        assert not f.value.flags.owndata and np.shares_memory(f.value, w)
        np.testing.assert_array_equal(f.value, flip_np(w))
        assert f.vjps == (ad.flip,) and f.reads == (None,)
        np.testing.assert_array_equal(ad.flip(f).value, w)

    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_no_node_outgrows_the_largest_activation(self, model_name):
        # a convolution's patch matrices live only inside its kernels; the
        # layer outputs are the nodes just before each start, input included
        _, graph, _, _, starts = small_cnn_tape(model_name)
        largest = max(graph.nodes[s - 1].value.size for s in starts)
        assert max(v.value.size for v in graph.nodes) <= largest


class TestAdjointLifetime:
    def test_off_tape_nodes_carry_no_edges(self):
        graph = ad.Graph()
        a = graph.variable(np.array([0.5, 2.0]))
        on_tape = [ad.mul(a, a), ad.recip(a), ad.sqrt(a), ad.exp(a)]
        assert all(v.id >= 0 and len(v.vjps) == len(v.parents) > 0 for v in on_tape)
        graph.recording = False
        for v in (ad.mul(a, a), ad.recip(a), ad.sqrt(a), ad.exp(a)):
            assert (v.id, v.parents, v.vjps) == (-1, (), ()), v.op

    def test_sweep_returns_only_parentless_adjoints(self):
        _, graph, env, loss, _ = small_cnn_tape("cnn-bn")
        p, g_p = env["bn1.gamma"], graph.retained[env["bn1.gamma"].id]
        leaves = [v for v in graph.nodes if v.op == "leaf"]
        sweeps = [
            ad._sweep(loss, ad._cone(graph, leaves, loss.id)),
            ad._sweep(g_p, ad._cone(graph, [p], g_p.id)),
        ]
        for adj in sweeps:
            assert p.id in adj
            assert all(not graph.nodes[nid].parents for nid in adj)

    def test_curvature_sweep_peak_memory_is_bounded(self):
        # each adjoint is freed once its vjp has fired, so a bn1 sweep holds a
        # few activation-sized arrays at a time rather than every one it built
        _, _, env, loss, _ = small_cnn_tape("cnn-bn")
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
        # the earlier tests' garbage goes before the window opens, as in
        # test_retaining_backward_peak_memory_is_bounded
        gc.collect()
        tracemalloc.start()
        try:
            ad.hessian_diag_1d(loss, env["bn1.gamma"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / activation <= 16


def grads_and_curvature(graph, loss, retain):
    """The bytes of every leaf gradient of a backward that retains the
    leaves in `retain`, then of each of their curvature vectors."""
    leaves = [v for v in graph.nodes if v.op == "leaf"]
    grads = ad.backward(loss, retain=retain)
    out = [grads[v.id] for v in leaves]
    out += [ad.hessian_diag_1d(loss, v) for v in retain]
    assert all(np.isfinite(a).all() for a in out)
    return [a.tobytes() for a in out]


def keep_everything(monkeypatch):
    """The sweep with nothing freed and every accumulation a new add."""
    monkeypatch.setattr(ad, "_drop", lambda *args: None)
    monkeypatch.setattr(ad, "_iadd", ad.add)


def square_after_a_contribution(x):
    # exp(a) fires first, so each of mul(a, a)'s two edges adds the one
    # shared product into an adjoint a already holds
    a = ad.cmul(x, 1.5)
    return ad.sum_all(ad.add(ad.mul(a, a), ad.exp(a)))


def add_into_two_parents(x):
    # add hands its adjoint on as it is into both parents' slots
    s = ad.add(ad.exp(x), ad.cmul(x, 2.0))
    return ad.sum_all(ad.mul(s, s))


def identity_broadcast(x):
    a = ad.cmul(x, 2.0)
    b = ad.broadcast_to(a, a.shape)
    return ad.sum_all(ad.mul(b, b))


class TestSweepFreeing:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_freeing_and_in_place_sums_keep_every_bit(self, model_name, dtype, monkeypatch):
        model, graph, env, loss, _ = small_cnn_loss(model_name, dtype)
        lean = grads_and_curvature(graph, loss, channelwise(model, env))
        keep_everything(monkeypatch)
        model, graph, env, loss, _ = small_cnn_loss(model_name, dtype)
        assert lean == grads_and_curvature(graph, loss, channelwise(model, env))

    @pytest.mark.parametrize("build", [square_after_a_contribution, add_into_two_parents,
                                       identity_broadcast])
    def test_shared_values_outlive_their_first_use(self, build, monkeypatch):
        def run():
            graph = ad.Graph()
            x = graph.variable(np.array([0.3, -0.7, 1.1]))
            return grads_and_curvature(graph, build(x), [x])

        lean = run()
        keep_everything(monkeypatch)
        assert lean == run()

    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_only_an_add_of_the_same_sweep_is_written_in_place(self, model_name, monkeypatch):
        built, written = [], []  # (add output, its array) since the sweep began
        add, iadd, sweep = ad.add, ad._iadd, ad._sweep

        def spy_add(a, b):
            out = add(a, b)
            built.append((out, out.value))
            return out

        def spy_iadd(prev, c):
            assert any(prev is v and prev.value is a for v, a in built)
            written.append(prev)
            return iadd(prev, c)

        def spy_sweep(*args, **kwargs):
            built.clear()
            return sweep(*args, **kwargs)

        monkeypatch.setattr(ad, "add", spy_add)
        monkeypatch.setattr(ad, "_iadd", spy_iadd)
        monkeypatch.setattr(ad, "_sweep", spy_sweep)
        model, _, env, loss, _ = small_cnn_tape(model_name)
        for p in model.parameters():
            if p.kind == ad.CHANNELWISE_1D:
                ad.hessian_diag_1d(loss, env[p.name])
        assert written and all(v.id < 0 for v in written)

    def test_retaining_backward_peak_memory_is_bounded(self):
        # recorded adjoints and the operands of recorded adds are freed at
        # their last use: 14.2 activations, where holding them to the end
        # of the sweep peaked at 19.6
        model, _, env, loss, _ = small_cnn_loss("cnn-bn")
        retain = channelwise(model, env)
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
        # the earlier tests' garbage goes before the window opens: where a
        # collection inside it falls depends on what ran before, and a
        # first run, which creates .hypothesis/, read 4144 B more
        gc.collect()
        tracemalloc.start()
        try:
            ad.backward(loss, retain=retain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / activation <= 19


# the random tapes below: activations of [N,C,H,W] = [2,2,5,5], 3x3 kernels
# and two 1-D leaves of length C; a channel sum scaled by CENTRE is minus
# the channel mean
ACT, KERNEL = (2, 2, 5, 5), (2, 2, 3, 3)
CENTRE = -1.0 / (ACT[0] * ACT[2] * ACT[3])


def per_channel(v):
    """A 1-D leaf or channel mean broadcast over an activation by reshape
    and broadcast_to."""
    return ad.broadcast_to(ad.reshape(v, (1, ACT[1], 1, 1)), ACT)


def as_square(a):
    return ad.reshape(a, (10, 10))


# op -> its builder over two activations a and b, a kernel k and the 1-D
# leaves (gamma, beta); conv_w and flip build a kernel, every other op an
# activation
RANDOM_OPS = {
    "add": lambda a, b, k, gb: ad.add(a, b),
    "difference": lambda a, b, k, gb: ad.add(a, ad.cmul(b, -1.0)),
    "mul": lambda a, b, k, gb: ad.mul(a, b),
    "square": lambda a, b, k, gb: ad.mul(a, a),
    "exp": lambda a, b, k, gb: ad.exp(a),
    "sqrt": lambda a, b, k, gb: ad.sqrt(ad.cadd(a, 1.5)),
    "recip": lambda a, b, k, gb: ad.recip(ad.cadd(a, 1.5)),
    "log": lambda a, b, k, gb: ad.log(ad.cadd(a, 1.5)),
    "relu": lambda a, b, k, gb: ad.relu(a),
    "negate": lambda a, b, k, gb: ad.cmul(a, -1.0),
    "cmul": lambda a, b, k, gb: ad.cmul(a, 0.7),
    "identity": lambda a, b, k, gb: ad.broadcast_to(a, ACT),
    "transpose": lambda a, b, k, gb: ad.reshape(ad.transpose(as_square(a)), ACT),
    "matmul": lambda a, b, k, gb: ad.reshape(ad.matmul(as_square(a), as_square(b)), ACT),
    "mean": lambda a, b, k, gb: ad.add(a, per_channel(ad.cmul(ad.sum_axes(a, (0, 2, 3)), CENTRE))),
    "batchnorm": lambda a, b, k, gb: ad.add(ad.mul(a, per_channel(gb[0])), per_channel(gb[1])),
    "chscale": lambda a, b, k, gb: ad.chscale(a, gb[0]),
    "chshift": lambda a, b, k, gb: ad.chshift(a, gb[1]),
    "centre": lambda a, b, k, gb: ad.chshift(a, ad.cmul(ad.sum_axes(a, (0, 2, 3)), CENTRE)),
    "chdot": lambda a, b, k, gb: ad.chscale(b, ad.chdot(a, b)),
    "chdot_square": lambda a, b, k, gb: ad.chscale(b, ad.chdot(a, a)),
    "conv2d": lambda a, b, k, gb: ad.conv2d(a, k),
    "conv2d_flip": lambda a, b, k, gb: ad.conv2d(a, ad.flip(k)),
    "conv_w": lambda a, b, k, gb: ad.conv_w(a, b, 3, 3),
    "flip": lambda a, b, k, gb: ad.flip(k),
}
KERNEL_OPS = {"conv_w", "flip"}


def bounded(v):
    """v, scaled into [-1, 1] where it leaves it: exp, matmul and the
    convolutions of a random tape then cannot overflow."""
    top = float(np.abs(v.value).max())
    return ad.cmul(v, 1 / top) if top > 1 else v


def random_tape(program, seed, dtype):
    """A tape built by `program`, a list of (op, i, j): op applied to the
    activations i and j and the kernel j, each index taken modulo its pool,
    its bounded result appended to its pool. The activations start from a
    dense leaf x through the BatchNorm op, a constant and x itself, which
    lies outside the 1-D leaves' cone, the kernels from a leaf; the loss
    sums the last activation times the first. Returns the graph, the loss
    and the two 1-D leaves."""
    graph = ad.Graph()
    rng = Rng(seed)
    x = graph.variable(rng.uniform(-1, 1, ACT, dtype))
    gamma = graph.variable(rng.uniform(0.5, 1.5, (ACT[1],), dtype))
    beta = graph.variable(rng.uniform(-0.5, 0.5, (ACT[1],), dtype))
    kernels = [graph.variable(rng.uniform(-1, 1, KERNEL, dtype))]
    acts = [bounded(RANDOM_OPS["batchnorm"](x, x, None, (gamma, beta))),
            graph.constant(rng.uniform(-1, 1, ACT, dtype)), x]
    for op, i, j in program:
        v = RANDOM_OPS[op](acts[i % len(acts)], acts[j % len(acts)], kernels[j % len(kernels)],
                           (gamma, beta))
        (kernels if op in KERNEL_OPS else acts).append(bounded(v))
    loss = ad.sum_all(ad.mul(acts[-1], acts[0]))
    return graph, loss, [gamma, beta]


class TestRandomTapes:
    @given(st.lists(st.tuples(st.sampled_from(sorted(RANDOM_OPS)),
                              st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=16),
           st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=150, deadline=None)
    def test_freeing_keeps_every_bit(self, program, seed, dtype):
        # every gradient and both curvature vectors, freed as backward() frees
        # them and with nothing freed: a freed value read by any sweep would
        # show as NaN or as a changed bit
        lean = grads_and_curvature(*random_tape(program, seed, dtype))
        with pytest.MonkeyPatch.context() as mp:
            keep_everything(mp)
            assert lean == grads_and_curvature(*random_tape(program, seed, dtype))

    @given(st.lists(st.tuples(st.sampled_from(sorted(RANDOM_OPS)),
                              st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=16),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_curvature_does_not_depend_on_what_else_is_retained(self, program, seed):
        # retaining the dense leaves too records every adjoint, so no adjoint
        # is handed out of the recorded cone; every gradient and both
        # curvature vectors keep their bits
        runs = []
        for dense in (False, True):
            graph, loss, one_d = random_tape(program, seed, np.float64)
            leaves = [v for v in graph.nodes if v.op == "leaf"]
            grads = ad.backward(loss, retain=leaves if dense else one_d)
            runs.append([grads[v.id].tobytes() for v in leaves]
                        + [ad.hessian_diag_1d(loss, p).tobytes() for p in one_d])
        assert runs[0] == runs[1]

    @given(st.lists(st.tuples(st.sampled_from(sorted(RANDOM_OPS)),
                              st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=16),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_no_value_that_no_sweep_reads_outlives_the_backward(self, program, seed):
        # after a retaining backward only the values a curvature sweep reads,
        # the loss and the retained gradients keep their data
        graph, loss, one_d = random_tape(program, seed, np.float32)
        ad.backward(loss, retain=one_d)
        kept = read_by_the_sweeps(graph, one_d) | {loss} | set(graph.retained.values())
        held = [v for v in graph.nodes if v.parents and v not in kept and not is_freed(v.value)]
        assert not held, held


def captured_by(f):
    """The Variables that one vjp holds in its closure."""
    return {c.cell_contents for c in (f.__closure__ or ())
            if isinstance(c.cell_contents, ad.Variable)}


def captured(graph):
    """The Variables that the vjps of the tape's nodes hold in their closures."""
    return {v for node in graph.nodes for f in node.vjps for v in captured_by(f)}


def read_by_the_sweeps(graph, retain):
    """The Variables that the vjps of the edges into the retained leaves'
    descendant cone hold in their closures: all a curvature sweep can read.
    The cone is found from the parent edges alone."""
    cone, read = set(retain), set()
    for node in graph.nodes:
        for p, f in zip(node.parents, node.vjps):
            if p in cone:
                cone.add(node)
                read |= captured_by(f)
    return read


def read_values(graph):
    """The Variables that some edge of the tape reads."""
    return {r for node in graph.nodes for r in node.reads if r is not None}


def owning_base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def is_freed(a):
    """Whether `a` is what _drop leaves: a zero-strided, read-only NaN view."""
    return (a.strides == (0,) * a.ndim and not a.flags.owndata and not a.flags.writeable
            and bool(np.isnan(a).all()))


# op -> its builder over operands a and b, and the names among a, b and its
# output that the new node's edges read
SAVES = {
    "mul": (lambda a, b: ad.mul(a, b), {"a", "b"}),
    "log": (lambda a, b: ad.log(a), {"a"}),
    "matmul": (lambda a, b: ad.matmul(a, b), {"a", "b"}),
    "chscale": (lambda a, b: ad.chscale(a, b), {"a", "b"}),
    "chdot": (lambda a, b: ad.chdot(a, b), {"a", "b"}),
    "chshift": (lambda a, b: ad.chshift(a, b), set()),
    "conv2d": (lambda a, b: ad.conv2d(a, b), {"a", "b"}),
    "conv_w": (lambda a, b: ad.conv_w(a, b, 3, 3), {"a", "b"}),
    "recip": (lambda a, b: ad.recip(a), {"out"}),
    "sqrt": (lambda a, b: ad.sqrt(a), {"out"}),
    "exp": (lambda a, b: ad.exp(a), {"out"}),
    "relu": (lambda a, b: ad.relu(a), set()),
    "cmul": (lambda a, b: ad.cmul(a, 2.0), set()),
    "add": (lambda a, b: ad.add(a, b), set()),
    "cadd": (lambda a, b: ad.cadd(a, 1.0), set()),
    "reshape": (lambda a, b: ad.reshape(a, (3, 2)), set()),
    "transpose": (lambda a, b: ad.transpose(a), set()),
    "flip": (lambda a, b: ad.flip(a), set()),
    "broadcast": (lambda a, b: ad.broadcast_to(a, (2, 3)), set()),
    "sum": (lambda a, b: ad.sum_axes(a, (0,)), set()),
}
SAVES_SHAPES = {"matmul": ((2, 3), (3, 2)), "broadcast": ((1, 3), (1, 3)),
                "chscale": ((2, 3), (3,)), "chshift": ((2, 3), (3,)),
                "conv2d": ((2, 2, 5, 5), (3, 2, 3, 3)), "conv_w": ((2, 2, 5, 5), (2, 3, 5, 5)),
                "flip": ((3, 2, 3, 3), (3, 2, 3, 3))}


class TestSavedValues:
    @pytest.mark.parametrize("op", SAVES)
    def test_each_op_marks_what_its_vjps_capture(self, op):
        build, expected = SAVES[op]
        shape_a, shape_b = SAVES_SHAPES.get(op, ((2, 3), (2, 3)))
        for recording in (True, False):
            graph = ad.Graph()
            a = graph.variable(np.full(shape_a, 0.5))
            b = graph.variable(np.full(shape_b, 2.0))
            graph.recording = recording
            out = build(a, b)
            assert out.op == op
            read = {name for name, v in (("a", a), ("b", b), ("out", out)) if v in out.reads}
            assert read == (expected if recording else set()), recording
            # each edge names the one operand its vjp reads
            assert len(out.reads) == len(out.vjps) == (len(out.parents) if recording else 0)
            for f, r in zip(out.vjps, out.reads):
                assert captured_by(f) == ({r} if r is not None else set())

    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_the_tape_keeps_only_what_a_vjp_reads(self, model_name, monkeypatch):
        # after a retaining backward only the values that an edge into the
        # retained cone reads stay, and the loss and the retained gradients
        built = {}
        init = ad.Variable.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[self] = (self.shape, self.dtype)

        monkeypatch.setattr(ad.Variable, "__init__", spy)
        model, graph, env, loss, _ = small_cnn_tape(model_name)
        assert read_values(graph) == captured(graph)
        read = read_by_the_sweeps(graph, channelwise(model, env))
        assert read < captured(graph)
        kept = read | {loss} | set(graph.retained.values())
        dropped = 0
        for v in graph.nodes:
            assert (v.shape, v.dtype) == built[v]
            base = owning_base(v.value)
            if v in kept or not v.parents:
                assert base.flags.owndata and np.isfinite(v.value).all(), v
                continue
            dropped += 1
            assert is_freed(v.value), v
            with pytest.raises(ValueError, match="read-only"):
                v.value[...] = 0
        assert dropped > len(graph.nodes) // 2
        # the curvature sweeps read only kept values, so every vector is finite
        for p in model.parameters():
            if p.kind == ad.CHANNELWISE_1D:
                assert np.isfinite(ad.hessian_diag_1d(loss, env[p.name])).all()


def small_loss(model_name, dtype):
    """small_cnn_loss's model, env and loss for a CNN; for mlp-bn, the same
    on an 8-row batch of 6 features."""
    if model_name != "mlp-bn":
        model, _, env, loss, _ = small_cnn_loss(model_name, dtype)
        return model, env, loss
    model = nn.build_model(model_name, Rng(0), in_shape=(6,), n_classes=3, dtype=dtype)
    graph = ad.Graph()
    env = model.bind(graph)
    y = model.forward_v(graph.constant(Rng(1).normal((8, 6)).astype(dtype)), env)
    return model, env, nn.softmax_cross_entropy(y, np.array([0, 1, 2, 0, 1, 2, 0, 1]))


class TestTapeAfterTheBackward:
    @pytest.mark.parametrize("retain", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn", "mlp-bn"])
    def test_freeing_the_unread_values_keeps_every_bit(self, model_name, dtype, retain,
                                                       monkeypatch):
        runs = []
        for prune in (True, False):
            if not prune:
                monkeypatch.setattr(ad, "_drop", lambda *args: None)
            model, env, loss = small_loss(model_name, dtype)
            one_d = channelwise(model, env) if retain else []
            runs.append(grads_and_curvature(loss.graph, loss, one_d))
        lean, full = runs
        assert len(lean) == len(env) + len(one_d) and lean == full

    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn", "mlp-bn"])
    def test_without_retain_no_value_keeps_its_data(self, model_name):
        # sgdm's backward: no curvature sweep follows, so each value goes
        # once the step that reads it last is done
        _, env, loss = small_loss(model_name, np.float32)
        graph = loss.graph
        ad.backward(loss)
        assert len(graph.nodes) == loss.id + 1
        below = [v for v in graph.nodes[:loss.id] if v.parents]
        assert below and all(is_freed(v.value) for v in below)
        assert np.isfinite(loss.value)

    def test_an_adjoint_handed_out_of_the_cone_goes_with_the_backward(self, monkeypatch):
        # s's adjoint is recorded, since s depends on y, and add hands it on
        # as it is into x's slot; x lies outside y's cone, so no curvature
        # sweep reads it
        def tape():
            graph = ad.Graph()
            x = graph.variable(np.array([1.5, 2.0]))
            y = graph.variable(np.array([1.0, -1.0]))
            s = ad.add(x, ad.cmul(y, -1.0))
            return graph, ad.sum_all(ad.mul(s, s)), [y]

        graph, loss, retain = tape()
        lean = grads_and_curvature(graph, loss, retain)
        assert lean == [np.array(a).tobytes() for a in ([1.0, 6.0], [-1.0, -6.0], [2.0, 2.0])]
        kept = read_by_the_sweeps(graph, retain) | {loss} | set(graph.retained.values())
        held = [v for v in graph.nodes if v.parents and v not in kept and not is_freed(v.value)]
        assert not held, held
        keep_everything(monkeypatch)
        assert lean == grads_and_curvature(*tape())

    def test_the_recorded_backward_peaks_at_the_forward(self, monkeypatch):
        # cnn-bn f32 at batch 100, by tracemalloc: the forward and the
        # recorded backward peak at 37.7 MiB, since each value goes when its
        # step is done (40.6 while the values no curvature sweep reads lived
        # to the end of the sweep); the curvature sweeps over the 12.8 MiB
        # tape peak at 38.3 MiB, and over the 19.9 MiB tape that kept every
        # value an edge reads they peaked at 45.4
        model = nn.build_model("cnn-bn", Rng(0), in_shape=(1, 28, 28), n_classes=10,
                               dtype=np.float32)
        x = Rng(1).normal((100, 1, 28, 28)).astype(np.float32)
        labels = Rng(2).integers(0, 10, (100,))
        one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
        peaks = []
        backward = ad.backward

        def spy(loss, *args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])  # the forward's
            tracemalloc.reset_peak()
            grads = backward(loss, *args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])  # the backward's own
            tracemalloc.reset_peak()
            return grads

        monkeypatch.setattr(ad, "backward", spy)
        gc.collect()
        tracemalloc.start()
        try:
            with nn.taped_batch(model, x, labels, "ce", one_d) as (_, _, _, hdiags):
                peaks.append(tracemalloc.get_traced_memory()[1])  # the sweeps'
        finally:
            tracemalloc.stop()
        assert len(hdiags) == 4 and len(peaks) == 3
        forward, recorded, sweeps = peaks
        assert max(forward, sweeps) <= recorded + 2**20, [p / 2**20 for p in peaks]
        assert recorded <= forward + 2**20, [p / 2**20 for p in peaks]


class TestEdges:
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_one_vjp_per_edge_and_none_off_the_tape(self, model_name, monkeypatch):
        built = []
        init = ad.Variable.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(ad.Variable, "__init__", spy)
        model, graph, env, loss, _ = small_cnn_tape(model_name)
        for p in model.parameters():
            if p.kind == ad.CHANNELWISE_1D:
                ad.hessian_diag_1d(loss, env[p.name])
        on_tape = [v for v in built if v.id >= 0]
        off_tape = [v for v in built if v.id < 0]
        assert len(on_tape) == len(graph.nodes) and off_tape
        assert all(len(v.vjps) == len(v.parents) for v in graph.nodes)
        assert all(v.vjps == () and v.parents == () for v in off_tape)

    @pytest.mark.parametrize("model_name, recorded", [("cnn-bn", [[], ["chscale"]]),
                                                      ("cnn-wn", [[], []])])
    def test_a_square_builds_its_product_once(self, model_name, recorded):
        # a square, chdot(d, d) in BatchNorm and mul(v, v) in the weight
        # norm, holds one function on both edges, so the retained backward
        # calls it once: bn2's chdot(d, d) records one chscale, not two.
        # bn1's d and the directions v lie outside the retained cone
        model, graph, env, loss, _ = small_cnn_loss(model_name)
        squares = [v for v in graph.nodes if v.op in ("chdot", "mul")
                   and v.parents[0] is v.parents[1]]
        assert {v.op for v in squares} == {"chdot" if model_name == "cnn-bn" else "mul"}
        calls = {v.id: [] for v in squares}

        def counted(node, f):
            def wrapped(g):
                before = len(graph.nodes)
                c = f(g)
                calls[node.id].append([v.op for v in graph.nodes[before:]])
                return c

            return wrapped

        for v in squares:
            f = counted(v, v.vjps[0])
            v.vjps = (f, f)
        ad.backward(loss, retain=channelwise(model, env))
        assert [len(c) for c in calls.values()] == [1, 1]
        assert [c[0] for c in calls.values()] == recorded


class TestRetainedCone:
    def test_a_one_parameter_audit_records_only_its_cone(self, monkeypatch):
        # the verify batch: bn2.gamma's cone leaves out the adjoints upstream
        # of bn2 that the four BatchNorm parameters' backward records, 79
        # nodes against 110
        sizes = []
        release = ad.Graph.release

        def spy(graph):
            sizes.append(len(graph.nodes))
            release(graph)

        monkeypatch.setattr(ad.Graph, "release", spy)
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        with oracle.preserve_bn_stats(model), nn.taped_batch(
                model, x, labels, loss, ["bn1.gamma", "bn1.beta", "bn2.gamma", "bn2.beta"]):
            pass
        oracle.tape_hdiag(model, x, "bn2.gamma", loss, labels)
        every, one = sizes
        assert one < every

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_retaining_one_leaf_keeps_its_curvature_bits(self, model_name, dtype):
        model, _, env, loss, _ = small_cnn_loss(model_name, dtype)
        retain = channelwise(model, env)
        ad.backward(loss, retain=retain)
        every = [ad.hessian_diag_1d(loss, v) for v in retain]
        for i, ref in enumerate(every):
            model, _, env, loss, _ = small_cnn_loss(model_name, dtype)
            p = channelwise(model, env)[i]
            ad.backward(loss, retain=[p])
            h = ad.hessian_diag_1d(loss, p)
            assert h.dtype == dtype and h.tobytes() == ref.tobytes(), i


class TestRetainedBackward:
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_every_recorded_node_feeds_a_channelwise_gradient(self, model_name):
        model, graph, env, loss, _ = small_cnn_tape(model_name)
        assert set(graph.retained) == {v.id for v in channelwise(model, env)}
        feeds, todo = set(), list(graph.retained.values())
        while todo:
            v = todo.pop()
            if v.id not in feeds:
                feeds.add(v.id)
                todo.extend(v.parents)
        appended = range(loss.id + 1, len(graph.nodes))
        assert appended and [i for i in appended if i not in feeds] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_retaining_leaves_every_gradient_bitwise_unchanged(self, model_name, dtype):
        # the dense gradients are computed off the tape, the channel-wise
        # ones on it: both with the arithmetic of the plain backward
        runs = []
        for retain in (False, True):
            model, _, env, loss, _ = small_cnn_loss(model_name, dtype)
            grads = ad.backward(loss, retain=channelwise(model, env) if retain else ())
            runs.append({name: grads[v.id] for name, v in env.items()})
        plain, retained = runs
        for name, g in plain.items():
            assert g.dtype == dtype and g.tobytes() == retained[name].tobytes(), name

    def test_relu_captures_a_bool_mask(self):
        _, graph, _, _, _ = small_cnn_tape("cnn-bn")
        masks = [c.cell_contents for v in graph.nodes if v.op == "relu"
                 for c in v.vjps[0].__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [m.dtype for m in masks] == [np.bool_, np.bool_]

    def test_retained_tape_is_bounded(self):
        # distinct base arrays, so a view costs nothing beyond its base. Only
        # the values a curvature sweep reads stay: 4.0 activations on cnn-bn
        # and 3.4 on cnn-wn, where keeping those any vjp reads held 5.5 and
        # 4.5, and keeping every value 17.1 and 11.1
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
        for model_name, bound in (("cnn-bn", 5), ("cnn-wn", 4)):
            _, graph, _, _, _ = small_cnn_tape(model_name)
            bases = {id(a): a.nbytes for a in (owning_base(v.value) for v in graph.nodes)}
            assert sum(bases.values()) / activation <= bound, model_name


def batch_100_tape(model_name):
    """The f32 batch-100 tape of a model: the ops of its forward nodes and
    the number of nodes the retaining backward of its 1-D leaves records."""
    cnn = model_name.startswith("cnn")
    in_shape = (1, 28, 28) if cnn else (2,)
    model = nn.build_model(model_name, Rng(0), in_shape=in_shape, n_classes=10,
                           dtype=np.float32)
    graph = ad.Graph()
    env = model.bind(graph)
    y = model.forward_v(graph.constant(Rng(1).normal((100,) + in_shape).astype(np.float32)), env)
    loss = nn.softmax_cross_entropy(y, Rng(2).integers(0, 10, (100,)))
    forward = [v.op for v in graph.nodes]
    ad.backward(loss, retain=channelwise(model, env))
    return forward, len(graph.nodes) - len(forward)


class TestLayerTapes:
    # model, then its forward's chshift, reshape and broadcast nodes, and its
    # forward and recorded node counts
    @pytest.mark.parametrize("model_name, ops, nodes", [("mlp-bn", (4, 0, 0), (32, 19)),
                                                        ("cnn-bn", (5, 1, 0), (47, 43)),
                                                        ("cnn-wn", (3, 3, 2), (43, 34))])
    def test_every_channel_vector_meets_its_activation_through_chshift(self, model_name, ops,
                                                                       nodes):
        # each bias, BatchNorm's centring and its shift are one chshift each,
        # with no reshape or broadcast: Flatten's is a CNN's one reshape, and
        # only the weight norm broadcasts, a scale over each kernel
        forward, recorded = batch_100_tape(model_name)
        assert tuple(forward.count(op) for op in ("chshift", "reshape", "broadcast")) == ops
        assert (len(forward), recorded) == nodes


class TestOpSet:
    def test_every_op_the_tape_defines_is_built_by_a_model(self, monkeypatch):
        # the op names autodiff passes to _op, against those that one sgdph
        # and one sgdm batch of each model builds, on the tape and off it
        tree = ast.parse(inspect.getsource(ad))
        defined = {node.args[4].value for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_op"}
        built = set()
        op = ad._op

        def spy(graph, value, parents, vjps, name, reads=None):
            built.add(name)
            return op(graph, value, parents, vjps, name, reads)

        monkeypatch.setattr(ad, "_op", spy)
        for model_name, loss, in_shape in (("mlp-bn", "ce", (6,)), ("cnn-bn", "ce", (1, 6, 6)),
                                           ("cnn-wn", "ce", (1, 6, 6)),
                                           ("bn-terminal", "sos", (6,))):
            model = nn.build_model(model_name, Rng(0), in_shape=in_shape, n_classes=3)
            x = Rng(1).normal((4,) + in_shape)
            one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
            for curvature in (one_d, ()):
                with nn.taped_batch(model, x, np.array([0, 1, 2, 0]), loss, curvature):
                    pass
        assert "add" in defined and built == defined


class TestTrainingScale:
    def test_f32_curvature_matches_f64_on_a_cnn_bn_step(self):
        # the first step of acceptance criterion 9 (seed 0: 100 of 1000 digit
        # images, 1x28x28), once in f32 and once in f64; every channel-wise
        # curvature vector of the f32 tape within 1e-5 of the f64 tape's,
        # relative to max|h_f64|
        imgs, labels = gen_digits(1000, seed=0)
        idx = Rng(0).permutation(1000)[:100]
        x = (imgs[idx].astype(np.float64) / 255.0)[:, None]
        runs = {}
        for dtype in (np.float32, np.float64):
            model = nn.build_model("cnn-bn", Rng(0), in_shape=(1, 28, 28), n_classes=10,
                                   dtype=dtype)
            graph = ad.Graph()
            env = model.bind(graph)
            logits = model.forward_v(graph.constant(x.astype(dtype)), env)
            loss = nn.softmax_cross_entropy(logits, labels[idx])
            # forward values: the backward frees those no vjp reads
            masks = [n.value > 0 for n in graph.nodes if n.op == "relu"]
            assert all(m.any() for m in masks)
            one_d = [p.name for p in model.parameters() if p.kind == ad.CHANNELWISE_1D]
            ad.backward(loss, retain=[env[name] for name in one_d])
            h = {name: ad.hessian_diag_1d(loss, env[name]) for name in one_d}
            runs[dtype] = masks, h
            graph.release()
        (m32, h32), (m64, h64) = runs[np.float32], runs[np.float64]
        # a pre-activation within f32 rounding of a kink would switch the
        # f32 tape to another linear piece; the curvature differs there
        assert [int(np.sum(a != b)) for a, b in zip(m32, m64)] == [0, 0]
        assert len(h64) == 4
        for name, ref in h64.items():
            assert h32[name].dtype == np.float32
            err = np.max(np.abs(h32[name] - ref))
            assert err <= 1e-5 * np.max(np.abs(ref)), (name, err)


class TestErrors:
    def test_non_scalar_loss(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([1.0, 2.0]))
        with pytest.raises(ad.NonScalarLossError):
            ad.backward(ad.mul(leaf, leaf))

    def test_hessian_without_retain(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([1.0]))
        loss = ad.sum_all(ad.mul(leaf, leaf))
        ad.backward(loss)
        with pytest.raises(ad.MissingDifferentiableGraphError):
            ad.hessian_diag_1d(loss, leaf)

    def test_hessian_of_a_leaf_left_out_of_retain(self):
        # only the leaves named to backward get a differentiable gradient
        graph = ad.Graph()
        kept = graph.variable(np.array([1.0]))
        left_out = graph.variable(np.array([2.0]))
        loss = ad.sum_all(ad.mul(ad.mul(kept, kept), ad.mul(left_out, left_out)))
        ad.backward(loss, retain=[kept])
        assert set(graph.retained) == {kept.id}
        np.testing.assert_array_equal(ad.hessian_diag_1d(loss, kept), [8.0])
        with pytest.raises(ad.MissingDifferentiableGraphError, match="not retained"):
            ad.hessian_diag_1d(loss, left_out)

    def test_hessian_needs_1d(self):
        graph = ad.Graph()
        leaf = graph.variable(np.ones((2, 2)))
        loss = ad.sum_all(ad.mul(leaf, leaf))
        ad.backward(loss, retain=[leaf])
        with pytest.raises(ShapeMismatchError, match=r"1-D.*\(2, 2\)"):
            ad.hessian_diag_1d(loss, leaf)

    @pytest.mark.parametrize("entry", ["square", "constant", "other graph", "off tape"])
    def test_retain_takes_only_leaves_of_the_loss_graph(self, entry):
        # a non-leaf gets no adjoint back from the sweep, so retaining one
        # would give zero curvature with no error: y = x*x has d2L/dy2 = 2
        graph = ad.Graph()
        x = graph.variable(np.array([1.0, 2.0]))
        y = ad.mul(x, x)
        loss = ad.sum_all(ad.mul(y, y))
        if entry == "square":
            v = y
        elif entry == "constant":
            v = graph.constant(np.array([1.0, 2.0]))
        elif entry == "other graph":
            v = ad.Graph().variable(np.array([1.0, 2.0]))
        else:
            graph.recording = False
            v = graph.variable(np.array([1.0, 2.0]))
            graph.recording = True
        with pytest.raises(ad.MissingDifferentiableGraphError, match=re.escape(repr(v))):
            ad.backward(loss, retain=[x, v])
        assert graph.retained == {}

    def test_loss_built_off_tape(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([1.0]))
        graph.recording = False
        loss = ad.sum_all(ad.mul(leaf, leaf))
        with pytest.raises(ad.MissingDifferentiableGraphError):
            ad.backward(loss)

    def test_shape_mismatch_names_both_shapes(self):
        # binary tape ops take equal shapes and never broadcast implicitly
        graph = ad.Graph()
        a = graph.variable(np.ones((2, 1)))
        b = graph.variable(np.ones((1, 3)))
        for op in (ad.add, ad.mul):
            with pytest.raises(ShapeMismatchError, match=r"\(2, 1\) and \(1, 3\)"):
                op(a, b)

    def test_broadcast_to_keeps_the_rank(self):
        graph = ad.Graph()
        leaf = graph.variable(np.ones(3))
        with pytest.raises(ShapeMismatchError, match=r"\(3,\).*\(5, 3\)"):
            ad.broadcast_to(leaf, (5, 3))

    def test_cadd_rejects_widening_constant(self):
        graph = ad.Graph()
        leaf = graph.variable(np.array([1.0, 2.0]))
        with pytest.raises(ShapeMismatchError):
            ad.cadd(leaf, np.ones((3, 2)))

    def test_mismatched_graphs(self):
        g1, g2 = ad.Graph(), ad.Graph()
        p1 = g1.variable(np.array([1.0]))
        p2 = g2.variable(np.array([1.0]))
        loss = ad.sum_all(ad.mul(p1, p1))
        ad.backward(loss, retain=[p1])
        with pytest.raises(ad.MissingDifferentiableGraphError):
            ad.hessian_diag_1d(loss, p2)


class TestProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_product_gradient_is_other_factor(self, n, seed):
        rng = Rng(seed)
        a0, b0 = rng.normal((n,)), rng.normal((n,))
        graph = ad.Graph()
        a = graph.variable(a0)
        b = graph.constant(b0)
        grads = ad.backward(ad.sum_all(ad.mul(a, b)))
        np.testing.assert_array_equal(grads[a.id], b0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linear_gradient_constant_in_x(self, n, m, seed):
        # d(sum Wx)/dW is x-dependent but d(sum x)/dx of a sum is all-ones
        rng = Rng(seed)
        x0 = rng.normal((n, m))
        graph = ad.Graph()
        x = graph.variable(x0)
        grads = ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x.id], np.ones((n, m)))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_extraction_matches_symmetric_row_sums(self, c, seed):
        rng = Rng(seed)
        a = rng.normal((c, c))
        a = 0.5 * (a + a.T)

        def build(p):
            col = ad.reshape(p, (c, 1))
            ap = ad.matmul(p.graph.constant(a), col)
            return ad.cmul(ad.sum_all(ad.mul(col, ap)), 0.5)

        h = hdiag_of(build, rng.normal((c,)))
        np.testing.assert_allclose(h, a @ np.ones(c), rtol=1e-10, atol=1e-10)
