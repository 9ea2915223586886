"""Tape gradients and second-sweep curvature against finite differences
and closed forms."""

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
    ("neg-sub", lambda p: ad.sum_all(ad.sub(ad.neg(p), ad.mul(p, p)))),
]


# the operands of each convolution op: input x, kernel w, output adjoint g
CONV_FAMILY = {"conv2d": ("x", "w"), "conv_t": ("g", "w"), "conv_w": ("x", "g")}
OPERAND_SHAPES = {"x": (2, 2, 5, 5), "w": (3, 2, 3, 3), "g": (2, 3, 5, 5)}


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

    def test_mean_axes_adjoint(self):
        g = grad_of(lambda p: ad.sum_all(ad.mean_axes(ad.reshape(p, (2, 3)), (0,))),
                    np.arange(6.0))
        np.testing.assert_allclose(g, np.full(6, 0.5), rtol=0, atol=0)

    @pytest.mark.parametrize("op,wrt", [(op, v) for op, names in CONV_FAMILY.items()
                                        for v in names])
    def test_conv_family_vs_fd(self, op, wrt):
        # each of the three convolution ops as a function of each operand
        rng = Rng(11)
        operands = [rng.normal(OPERAND_SHAPES[name]) for name in CONV_FAMILY[op]]
        arg = CONV_FAMILY[op].index(wrt)
        ad_op, np_op = getattr(ad, op), getattr(tensor, op)
        extra = (3, 3) if op == "conv_w" else ()

        def build(p):
            args = [p if i == arg else p.graph.constant(v) for i, v in enumerate(operands)]
            y = ad_op(*args, *extra)
            return ad.cmul(ad.sum_all(ad.mul(y, y)), 0.5)

        def f(v):
            args = [v if i == arg else u for i, u in enumerate(operands)]
            return float(0.5 * np.sum(np_op(*args, *extra) ** 2))

        g = grad_of(build, operands[arg])
        np.testing.assert_allclose(g, fd_grad(f, operands[arg], h=1e-5), rtol=0, atol=1e-6)


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
    adj = ad._sweep(graph, graph.retained[p.id], admitted)
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
        assert {"conv2d", "conv_t", "conv_w"} <= {node.op for node, _ in fired}

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
            ad._sweep(graph, loss, ad._cone(graph, leaves, loss.id)),
            ad._sweep(graph, g_p, ad._cone(graph, [p], g_p.id)),
        ]
        for adj in sweeps:
            assert p.id in adj
            assert all(not graph.nodes[nid].parents for nid in adj)

    def test_curvature_sweep_peak_memory_is_bounded(self):
        # each adjoint is freed once its vjp has fired, so a bn1 sweep holds a
        # few activation-sized arrays at a time rather than every one it built
        _, _, env, loss, _ = small_cnn_tape("cnn-bn")
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
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
        # their last use: 16.0 activations, where holding them to the end
        # of the sweep peaked at 22.0
        model, _, env, loss, _ = small_cnn_loss("cnn-bn")
        retain = channelwise(model, env)
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
        tracemalloc.start()
        try:
            ad.backward(loss, retain=retain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / activation <= 19


def captured(graph):
    """The Variables that the vjps of the tape's nodes hold in their closures."""
    return {c.cell_contents for v in graph.nodes for f in v.vjps
            for c in (f.__closure__ or ()) if isinstance(c.cell_contents, ad.Variable)}


def owning_base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# op -> its builder over operands a and b, and the names among a, b and its
# output that the new node marks saved
SAVES = {
    "mul": (lambda a, b: ad.mul(a, b), {"a", "b"}),
    "log": (lambda a, b: ad.log(a), {"a"}),
    "matmul": (lambda a, b: ad.matmul(a, b), {"a", "b"}),
    "conv2d": (lambda a, b: ad.conv2d(a, b), {"a", "b"}),
    "conv_t": (lambda a, b: ad.conv_t(a, b), {"a", "b"}),
    "conv_w": (lambda a, b: ad.conv_w(a, b, 3, 3), {"a", "b"}),
    "recip": (lambda a, b: ad.recip(a), {"out"}),
    "sqrt": (lambda a, b: ad.sqrt(a), {"out"}),
    "exp": (lambda a, b: ad.exp(a), {"out"}),
    "relu": (lambda a, b: ad.relu(a), set()),
    "cmul": (lambda a, b: ad.cmul(a, 2.0), set()),
    "add": (lambda a, b: ad.add(a, b), set()),
    "sub": (lambda a, b: ad.sub(a, b), set()),
    "neg": (lambda a, b: ad.neg(a), set()),
    "cadd": (lambda a, b: ad.cadd(a, 1.0), set()),
    "reshape": (lambda a, b: ad.reshape(a, (3, 2)), set()),
    "transpose": (lambda a, b: ad.transpose(a), set()),
    "broadcast": (lambda a, b: ad.broadcast_to(a, (2, 3)), set()),
    "sum": (lambda a, b: ad.sum_axes(a, (0,)), set()),
}
SAVES_SHAPES = {"matmul": ((2, 3), (3, 2)), "broadcast": ((1, 3), (1, 3)),
                "conv2d": ((2, 2, 5, 5), (3, 2, 3, 3)), "conv_t": ((2, 3, 5, 5), (3, 2, 3, 3)),
                "conv_w": ((2, 2, 5, 5), (2, 3, 5, 5))}


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
            saved = {name for name, v in (("a", a), ("b", b), ("out", out)) if v.saved}
            assert saved == (expected if recording else set()), recording

    @pytest.mark.parametrize("model_name", ["cnn-bn", "cnn-wn"])
    def test_the_tape_keeps_only_what_a_vjp_reads(self, model_name, monkeypatch):
        built = {}
        init = ad.Variable.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[self] = (self.shape, self.dtype)

        monkeypatch.setattr(ad.Variable, "__init__", spy)
        model, graph, env, loss, _ = small_cnn_tape(model_name)
        reads = captured(graph)
        assert {v for v in graph.nodes if v.saved} == reads
        kept = reads | {loss} | set(graph.retained.values())
        dropped = 0
        for v in graph.nodes:
            assert (v.shape, v.dtype) == built[v]
            base = owning_base(v.value)
            if v in kept or not v.parents:
                assert base.flags.owndata and np.isfinite(v.value).all(), v
                continue
            dropped += 1
            a = v.value
            assert a.strides == (0,) * a.ndim and not a.flags.owndata
            assert not a.flags.writeable and np.isnan(a).all(), v
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert dropped > len(graph.nodes) // 2
        # the curvature sweeps read only kept values, so every vector is finite
        for p in model.parameters():
            if p.kind == ad.CHANNELWISE_1D:
                assert np.isfinite(ad.hessian_diag_1d(loss, env[p.name])).all()


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

    @pytest.mark.parametrize("model_name, recorded", [("cnn-bn", [0, 1]),
                                                      ("cnn-wn", [0, 0])])
    def test_a_square_builds_its_product_once(self, model_name, recorded):
        # mul(a, a) holds one function on both edges, so the retained
        # backward calls it once: bn2's mul(d, d) records one mul, not two
        model, graph, env, loss, _ = small_cnn_loss(model_name)
        squares = [v for v in graph.nodes if v.op == "mul" and v.parents[0] is v.parents[1]]
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
        assert [len(c[0]) for c in calls.values()] == recorded
        assert all(op == "mul" for c in calls.values() for op in c[0])


class TestRetainedCone:
    def test_a_one_parameter_audit_records_only_its_cone(self, monkeypatch):
        # the verify batch: bn2.gamma's cone leaves out the adjoints upstream
        # of bn2 that the four BatchNorm parameters' backward records, 90
        # nodes against 129
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
        # the values a vjp reads stay: 9.5 activations on cnn-bn and 5.5 on
        # cnn-wn, where keeping every value held 23.6 and 11.1
        activation = np.zeros((4, 16, 6, 6), dtype=np.float32).nbytes
        for model_name, bound in (("cnn-bn", 12), ("cnn-wn", 7)):
            _, graph, _, _, _ = small_cnn_tape(model_name)
            bases = {id(a): a.nbytes for a in (owning_base(v.value) for v in graph.nodes)}
            assert sum(bases.values()) / activation <= bound, model_name


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
        for op in (ad.add, ad.sub, ad.mul):
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
