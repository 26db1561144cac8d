"""ROBDD manager tests: reduction, hash consing, and every combinator
checked against Python's boolean operators over all assignments."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.hdl.bdd import BDD

N_VARS = 3
ASSIGNMENTS = list(itertools.product((0, 1), repeat=N_VARS))
PY_OPS = {"and": lambda a, b: a & b, "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b}

# formula trees over x0..x2: ("var", i) | ("const", c) | ("not", f) | (op, f, g)
formulas = st.recursive(
    st.one_of(
        st.tuples(st.just("var"), st.integers(0, N_VARS - 1)),
        st.tuples(st.just("const"), st.integers(0, 1)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(sorted(PY_OPS)), sub, sub),
    ),
    max_leaves=12,
)


def build(mgr, f):
    """The formula's BDD, made from ``variable``, ``negate`` and ``apply``."""
    tag = f[0]
    if tag == "var":
        return mgr.variable(f[1])
    if tag == "const":
        return BDD.TRUE if f[1] else BDD.FALSE
    if tag == "not":
        return mgr.negate(build(mgr, f[1]))
    return mgr.apply(tag, build(mgr, f[1]), build(mgr, f[2]))


def truth(f, bits):
    """The formula's value at one assignment, in plain Python."""
    tag = f[0]
    if tag == "var":
        return bits[f[1]]
    if tag == "const":
        return f[1]
    if tag == "not":
        return 1 - truth(f[1], bits)
    return PY_OPS[tag](truth(f[1], bits), truth(f[2], bits))


class TestBDDCore:
    def test_terminals(self):
        mgr = BDD(2)
        x = mgr.variable(0)
        assert mgr.apply("and", x, mgr.negate(x)) == BDD.FALSE
        assert mgr.apply("or", x, mgr.negate(x)) == BDD.TRUE

    def test_reduction_no_redundant_test(self):
        mgr = BDD(1)
        assert mgr.node(0, 5, 5) == 5

    def test_hash_consing(self):
        mgr = BDD(2)
        a = mgr.node(1, BDD.FALSE, BDD.TRUE)
        b = mgr.node(1, BDD.FALSE, BDD.TRUE)
        assert a == b

    def test_variable_function(self):
        mgr = BDD(3)
        x1 = mgr.variable(1)
        assert mgr.evaluate(x1, (0, 1, 0)) == 1
        assert mgr.evaluate(x1, (1, 0, 1)) == 0

    def test_variable_range(self):
        with pytest.raises(ValueError):
            BDD(2).variable(2)

    @given(formulas)
    def test_built_function_evaluates_correctly(self, f):
        mgr = BDD(N_VARS)
        root = build(mgr, f)
        for bits in ASSIGNMENTS:
            assert mgr.evaluate(root, bits) == truth(f, bits)


class TestApply:
    @given(formulas, formulas)
    def test_apply_matches_python_ops(self, f, g):
        mgr = BDD(N_VARS)
        u, v = build(mgr, f), build(mgr, g)
        for op, fn in PY_OPS.items():
            w = mgr.apply(op, u, v)
            for bits in ASSIGNMENTS:
                assert mgr.evaluate(w, bits) == fn(truth(f, bits), truth(g, bits))

    @given(formulas, formulas)
    def test_equal_functions_share_a_node(self, f, g):
        """Canonicity: two constructions of one function are one node id."""
        mgr = BDD(N_VARS)
        u, v = build(mgr, f), build(mgr, g)
        nu, nv = mgr.negate(u), mgr.negate(v)
        assert mgr.negate(mgr.apply("and", u, v)) == mgr.apply("or", nu, nv)
        assert mgr.apply("xor", u, v) == mgr.apply(
            "or", mgr.apply("and", u, nv), mgr.apply("and", nu, v)
        )

    def test_unknown_op(self):
        mgr = BDD(1)
        with pytest.raises(ValueError):
            mgr.apply("nand", BDD.TRUE, BDD.TRUE)

    @given(formulas)
    def test_negate_is_involution(self, f):
        mgr = BDD(N_VARS)
        u = build(mgr, f)
        assert mgr.negate(mgr.negate(u)) == u

    @given(formulas)
    def test_negate_matches_complement(self, f):
        mgr = BDD(N_VARS)
        u = mgr.negate(build(mgr, f))
        for bits in ASSIGNMENTS:
            assert mgr.evaluate(u, bits) == 1 - truth(f, bits)
