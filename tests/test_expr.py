"""Expression layer: parsing, exact derivatives, compiled evaluators."""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftrees import expr as ex

LAY = ex.VarLayout(2, 2)  # x1, x2, e1, e2
NAMES = ["x1", "x2", "e1", "e2"]


def val(text, point, dim=4):
    return ex.compile_value(ex.parse(text, LAY), dim)(list(point))


def test_precedence_and_literals():
    p = [0.0, 0.0, 0.0, 0.0]
    assert val("2 + 3*4", p) == 14.0
    assert val("2*3^2", p) == 18.0
    assert val("(2*3)^2", p) == 36.0
    assert val("-3^2", p) == -9.0
    assert val("1/4", p) == 0.25
    assert val("2 - 3 - 4", p) == -5.0
    assert val("0.5e1", p) == 5.0  # scientific literal, not the variable e1
    assert val("pi", p) == pytest.approx(math.pi)


def test_variables_follow_layout():
    point = [0.3, -0.7, 1.1, 0.2]
    assert val("x1", point) == 0.3
    assert val("x2", point) == -0.7
    assert val("e1", point) == 1.1
    assert val("e2", point) == 0.2
    n = ex.parse("x2*e2", LAY)
    assert sorted(ex.free_vars(n)) == [1, 3]


def test_known_functions():
    p = [0.25, 0.0, 0.0, 0.0]
    assert val("cos(2*pi*x1)", p) == pytest.approx(0.0, abs=1e-12)
    assert val("sin(2*pi*x1)", p) == pytest.approx(1.0)
    assert val("exp(x1)", p) == pytest.approx(math.exp(0.25))


@pytest.mark.parametrize("bad,fragment", [
    ("x1 + ", "expected a value"),
    ("x3", "unknown identifier"),
    ("sin 3", "unknown identifier"),
    ("(x1", "expected ')'"),
    ("e1^(-2)", "exponent must be an integer"),
    ("e1^e1", "exponent must be an integer"),
    ("x1 $ 2", "unexpected character"),
])
def test_parse_errors_carry_position(bad, fragment):
    with pytest.raises(ex.ParseError) as info:
        ex.parse(bad, LAY)
    assert fragment in str(info.value)
    assert "position" in str(info.value)


def test_division_by_zero_is_a_domain_error():
    f = ex.compile_value(ex.parse("1/x1", LAY), 4)
    assert f([2.0, 0.0, 0.0, 0.0]) == 0.5
    with pytest.raises(ex.DomainError):
        f([0.0, 0.0, 0.0, 0.0])


def test_named_printing_round_trips():
    texts = [
        "e1^3/3 + (x1^2 - 1)*e1",
        "0.5*(x1^2 - 1)^2 - 1 + 0.1*x1",
        "cos(2*pi*x1) + 0.3*cos(2*pi*x2)",
        "bump(e1)*bump(x1) - e2/(1 + x2^2)",
    ]
    for text in texts:
        n = ex.parse(text, LAY)
        again = ex.parse(ex.to_named_str(n, NAMES), LAY)
        assert n.key() == again.key()


def test_fold_collapses_constants():
    n = ex.fold(ex.parse("2*3 + 4 - 1", LAY))
    assert isinstance(n, ex.Num) and n.v == 9.0
    # folding never changes the value
    n2 = ex.parse("(1 + 1)*x1 + 0*e1 + x2^1", LAY)
    f = ex.compile_value(n2, 4)
    g = ex.compile_value(ex.fold(n2), 4)
    for p in ([0.2, -0.3, 0.7, 0.1], [1.0, 2.0, -1.0, 0.5]):
        assert f(list(p)) == pytest.approx(g(list(p)), abs=1e-14)


FD = 1e-6

EXPRS = [
    "e1^3/3 + (x1^2 - 1)*e1",
    "0.5*(x1^2 - 1)^2*e1 - e2 + 0.1*x1*e2",
    "cos(2*pi*x1) + 0.3*cos(2*pi*x2)",
    "exp(0.3*x1)*sin(x2) + x1*e1*e2",
    "bump(e1)*bump(x1)",
]


@pytest.mark.parametrize("text", EXPRS)
def test_symbolic_gradient_matches_finite_differences(text):
    n = ex.parse(text, LAY)
    p = np.array([0.37, -0.21, 0.53, 1.31])
    v = ex.compile_value(n, 4, vector=True)(p[None])[0]
    g = np.array(ex.compile_grad(ex.Derivatives(n, 4))(list(p)))
    f = ex.compile_value(n, 4)
    assert v == pytest.approx(f(list(p)), abs=1e-14)
    for i in range(4):
        dp = np.zeros(4)
        dp[i] = FD
        fd = (f(list(p + dp)) - f(list(p - dp))) / (2 * FD)
        assert g[i] == pytest.approx(fd, abs=5e-8)


@pytest.mark.parametrize("text", EXPRS)
def test_symbolic_hessian_matches_finite_differences(text):
    n = ex.parse(text, LAY)
    p = np.array([0.37, -0.21, 0.53, 1.31])
    h = np.array(ex.compile_hess(ex.Derivatives(n, 4))(list(p)))
    assert np.allclose(h, h.T, atol=1e-12)
    g = ex.compile_grad(ex.Derivatives(n, 4))
    for i in range(4):
        dp = np.zeros(4)
        dp[i] = FD
        fd = (np.array(g(list(p + dp))) - np.array(g(list(p - dp)))) / (2 * FD)
        assert np.allclose(h[:, i], fd, atol=5e-7)


@given(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_compiled_derivatives_consistent_with_compiled_value(point):
    n = ex.parse("e1^3/3 + (x1^2 - 1)*e1 + 0.2*sin(x2)*e2", LAY)
    v = ex.compile_value(n, 4, vector=True)(np.array([point]))[0]
    g = np.array(ex.compile_grad(ex.Derivatives(n, 4))(list(point)))
    h = np.array(ex.compile_hess(ex.Derivatives(n, 4))(list(point)))
    assert v == pytest.approx(ex.compile_value(n, 4)(list(point)), abs=1e-13)
    assert g.shape == (4,) and h.shape == (4, 4)
    assert np.allclose(h, h.T, atol=1e-12)


@given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_printing_preserves_values(a, b, c):
    text = "%r*x1^2 + %r*e1 + %r" % (a, b, c)
    n = ex.parse(text, LAY)
    again = ex.parse(ex.to_named_str(n, NAMES), LAY)
    p = [0.7, 0.0, -0.4, 0.0]
    assert ex.compile_value(n, 4)(p) == pytest.approx(
        ex.compile_value(again, 4)(p), abs=1e-12, rel=1e-12)


def test_vector_evaluation_matches_pointwise():
    n = ex.parse("e1^3/3 + (x1^2 - 1)*e1 + cos(x2)", LAY)
    Z = np.array([[0.0, 1.0, 1.0, 0.0],
                  [0.3, -0.5, 0.2, 0.0],
                  [1.0, 0.0, -1.3, 0.0],
                  [-0.7, 0.2, 0.9, 0.0]])
    batch = ex.compile_value(n, 4, vector=True)(Z)
    single = ex.compile_value(n, 4)
    for row, got in zip(Z, batch):
        assert got == pytest.approx(single(list(row)), abs=1e-14)


def test_substitution_and_shift():
    lay1 = ex.VarLayout(1, 1)
    n = ex.parse("x1^2*e1", lay1)
    # shift the fiber slot up by one position (x1, e1) -> (x1, ?, e1')
    shifted = ex.shift_vars(n, {1: 2})
    assert sorted(ex.free_vars(shifted)) == [0, 2]
    v = ex.compile_value(shifted, 3)([2.0, 99.0, 0.5])
    assert v == 2.0


def test_bump_is_a_plateau_with_flat_ends():
    lay1 = ex.VarLayout(1, 0)
    n = ex.parse("bump(x1)", lay1)
    f = ex.compile_value(n, 1)
    for t in (0.0, 0.5, -1.0, 1.0):
        assert f([t]) == 1.0
    for t in (2.0, 2.5, -2.0, -7.0):
        assert f([t]) == 0.0
    # strictly between 0 and 1 on the shoulder, monotone falling
    vals = [f([t]) for t in np.linspace(1.0, 2.0, 21)]
    assert all(1.0 >= a >= b >= 0.0 for a, b in zip(vals, vals[1:]))
    assert 0.0 < f([1.5]) < 1.0
    # two continuous derivatives: symbolic matches finite differences
    d1 = ex.compile_value(ex.fold(ex.diff(n, 0)), 1)
    for t in (1.0, 1.3, 2.0, 0.2):
        fd = (f([t + 1e-6]) - f([t - 1e-6])) / 2e-6
        assert d1([t]) == pytest.approx(fd, abs=1e-6)
    assert d1([1.0]) == pytest.approx(0.0, abs=1e-12)
    assert d1([2.0]) == pytest.approx(0.0, abs=1e-12)


def test_vector_cutoff_helpers_return_the_scalar_bits():
    """The numpy cutoff helpers equal the scalar ones bit for bit, signed
    zeros included, on the plateau, the shoulder and past the end."""
    ends = np.array([1.0, 2.0])
    t = np.concatenate([np.linspace(0.0, 1.0, 101), np.linspace(1.0, 2.0, 103)[1:-1],
                        np.linspace(2.0, 3.0, 101), np.nextafter(ends, 0.0),
                        np.nextafter(ends, 3.0), [1.5]])
    t = np.concatenate([t, -t])
    for scalar, vector in ((ex._bump, ex._bump_np), (ex._dbump, ex._dbump_np),
                           (ex._d2bump, ex._d2bump_np)):
        want = np.array([scalar(v) for v in t.tolist()])
        assert np.array_equal(vector(t).view(np.int64), want.view(np.int64)), vector.__name__


def _edge_inputs(edges):
    """Each edge, its two float neighbours, and points past both ends."""
    edges = np.array(edges, dtype=float)
    return np.concatenate([np.nextafter(edges, -np.inf), edges,
                           np.nextafter(edges, np.inf),
                           [edges.min() - 0.5, edges.min() - 7.0,
                            edges.max() + 0.5, edges.max() + 7.0]])


WARP_BOXES = [(-1.5, 1.5, -2.5, 2.5), (-2.0, 2.0, -3.0, 3.0),
              (-0.1, 1.1, -0.25, 1.25), (0.3, 0.7, -1e-3, 2.0)]


@pytest.mark.parametrize("il,ih,ol,oh", WARP_BOXES)
def test_vector_warp_helpers_return_the_scalar_bits(il, ih, ol, oh):
    """Below, at and above ol, il, ih and oh, and beyond ol and oh."""
    c = _edge_inputs([ol, il, ih, oh])
    for scalar, vector in ((ex._warp, ex._warp_np),
                           (ex._warpslope, ex._warpslope_np)):
        want = np.array([scalar(v, il, ih, ol, oh) for v in c.tolist()])
        got = vector(c, il, ih, ol, oh)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), vector.__name__


def test_cutoff_helpers_on_a_block_return_the_scalar_bits():
    """The block prologue's form: a (k, B) block of coordinates, the
    constants as (k, 1) arrays, one row per warped coordinate."""
    boxes = np.array(WARP_BOXES)
    X = np.stack([_edge_inputs(sorted(b)) for b in boxes])
    il, ih, ol, oh = (boxes[:, m:m + 1] for m in range(4))
    warped = ex._warp_np(X, il, ih, ol, oh)
    slope = ex._warpslope_np(X, il, ih, ol, oh)
    for r, box in enumerate(WARP_BOXES):
        row = X[r].tolist()
        for scalar, got in ((ex._warp, warped), (ex._warpslope, slope)):
            want = np.array([scalar(v, *box) for v in row])
            assert np.array_equal(got[r].view(np.int64), want.view(np.int64))
        w = [ex._warp(v, *box) for v in row]
        for scalar, vector in ((ex._bump, ex._bump_np), (ex._dbump, ex._dbump_np),
                               (ex._d2bump, ex._d2bump_np)):
            want = np.array([scalar(v) for v in w])
            assert np.array_equal(vector(warped)[r].view(np.int64),
                                  want.view(np.int64)), vector.__name__


def test_the_vector_flavour_calls_each_cutoff_helper_once_per_batch():
    lay = ex.VarLayout(2, 1)
    node = ex.Num(1.0)
    for i, (il, ih, ol, oh) in enumerate(WARP_BOXES[:3]):
        node = ex.Mul(node, ex.Call("bump", ex.Warp(ex.Var(i), il, ih, ol, oh)))
    node = ex.Mul(node, ex.parse("x1*x2 + e1^3", lay))
    derivs = ex.Derivatives(ex.fold(node), 3)
    Z = np.random.default_rng(1).uniform(-3.0, 3.0, (50, 3))
    calls = []
    vector = ex.compile_grad(derivs, vector=True)
    for name in ("warp", "warpslope", "bump", "dbump"):
        helper = vector.__globals__[name]
        vector.__globals__[name] = (lambda *a, _h=helper, _n=name:
                                    calls.append(_n) or _h(*a))
    G = vector(Z)
    assert sorted(calls) == ["bump", "dbump", "warp", "warpslope"]
    scalar = ex.compile_grad(derivs)
    want = np.array([scalar(list(z)) for z in Z])
    assert np.array_equal(G.view(np.int64), want.view(np.int64))


class _Deadline(Exception):
    pass


def _within(seconds, fn, *args):
    """fn(*args), or _Deadline once `seconds` of wall time have passed."""
    def expire(signum, frame):
        raise _Deadline()
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_fold_and_diff_visit_each_shared_node_once():
    # a 30-deep self-product is 31 nodes as a DAG and 2^31 - 1 as a tree
    x = ex.Var(0)
    node = ex.Add(x, ex.Num(0.0))
    for _ in range(30):
        node = ex.Mul(node, node)
    folded = _within(5.0, ex.fold, node)
    depth = 0
    while isinstance(folded, ex.Mul):
        assert folded.a is folded.b
        folded, depth = folded.a, depth + 1
    assert depth == 30 and folded is x
    d = _within(5.0, ex.diff, node, 0)
    assert isinstance(d, ex.Add) and d.a.b is d.b.a is node.a


@pytest.mark.parametrize("text", ["0^-2 + x1", "1/(x1 - x1) + x1", "1/0 + x1"])
def test_a_literal_zero_base_or_denominator_is_a_domain_error(text):
    node = ex.parse(text, LAY)
    with pytest.raises(ex.DomainError):
        ex.compile_value(node, 4)([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ex.DomainError):
        ex.compile_value(node, 4, vector=True)(np.full((3, 4), 0.5))
