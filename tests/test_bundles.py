import random
from fractions import Fraction

import pytest

from statindex.series import TruncatedSeries
from statindex.bundles import (
    DivergenceError,
    RootModel,
    chern_character,
    ext_fock_character,
    fock_character_value,
    lambda_minus1_dual,
    spinor_character,
    sym_fock_character,
)

import reference_series as ref


def model_of(variables, D, *roots):
    return RootModel.build(variables, D, list(roots))


def test_chern_character_trivial_line():
    m = model_of(("x",), 2, ({}, 1))
    assert chern_character(m) == TruncatedSeries.constant(("x",), 2, 1)


def test_chern_character_plus_minus_pair():
    m = model_of(("x",), 2, ({"x": 1}, 1), ({"x": -1}, 1))
    assert chern_character(m) == TruncatedSeries(("x",), 2, {(0,): 2, (2,): 1})


def test_chern_character_twisted_line():
    m = model_of(("h",), 2, ({"h": 3}, 1))
    assert chern_character(m) == TruncatedSeries(
        ("h",), 2, {(0,): 1, (1,): 3, (2,): Fraction(9, 2)}
    )


def test_splitting_principle_random():
    rng = random.Random(42)
    variables = ("x", "y")
    for _ in range(10):
        def rand_model():
            roots = [
                (
                    {
                        "x": Fraction(rng.randrange(-2, 3)),
                        "y": Fraction(rng.randrange(-2, 3)),
                    },
                    rng.randrange(1, 3),
                )
                for _ in range(rng.randrange(1, 3))
            ]
            return model_of(variables, 4, *roots)

        a, b = rand_model(), rand_model()
        assert chern_character(a.concat(b)) == chern_character(a) + chern_character(b)
        assert chern_character(a.tensor(b)) == chern_character(a) * chern_character(b)


def test_sym_fock_single_root_is_todd_unit():
    m = model_of(("x",), 4, ({"x": -1}, 1))
    denom, unit = sym_fock_character(m)
    assert denom == (("x", 1),)
    assert [unit.coefficient((k,)) for k in range(5)] == ref.todd_factor(4)


def test_sym_fock_double_root_squares():
    m = model_of(("x",), 2, ({"x": -1}, 2))
    denom, unit = sym_fock_character(m)
    assert denom == (("x", 2),)
    todd = ref.todd_factor(2)
    assert [unit.coefficient((k,)) for k in range(3)] == ref.mul(todd, todd, 2)


def test_sym_fock_zero_root_diverges():
    m = model_of(("x",), 2, ({}, 1))
    with pytest.raises(DivergenceError):
        sym_fock_character(m)


def test_sym_fock_needs_single_generator_roots():
    m = model_of(("x", "y"), 2, ({"x": 1, "y": 1}, 1))
    with pytest.raises(ValueError):
        sym_fock_character(m)


def test_sym_fock_virtual_multiplicity_inverts():
    plus = model_of(("x",), 3, ({"x": -1}, 1))
    minus = model_of(("x",), 3, ({"x": -1}, -1))
    _, unit_plus = sym_fock_character(plus)
    _, unit_minus = sym_fock_character(minus)
    assert unit_plus * unit_minus == TruncatedSeries.constant(("x",), 3, 1)


def test_ext_fock_examples():
    assert ext_fock_character(model_of(("x",), 2, ({}, 1))) == TruncatedSeries.constant(
        ("x",), 2, 2
    )
    assert ext_fock_character(model_of(("x",), 2, ({"x": -1}, 1))) == TruncatedSeries(
        ("x",), 2, {(0,): 2, (1,): -1, (2,): Fraction(1, 2)}
    )
    empty = RootModel(("x",), 2, ())
    assert ext_fock_character(empty) == TruncatedSeries.constant(("x",), 2, 1)


def test_ext_fock_is_rank_two_character():
    # the exterior construction on a line is the trivial line plus the line
    m = model_of(("x",), 4, ({"x": Fraction(-3, 2)}, 1))
    split = model_of(("x",), 4, ({}, 1), ({"x": Fraction(-3, 2)}, 1))
    assert ext_fock_character(m) == chern_character(split)


def test_spinor_character_values():
    assert spinor_character(1, 2) == TruncatedSeries(
        ("x1",), 2, {(0,): 2, (2,): Fraction(1, 4)}
    )
    assert spinor_character(2, 0) == TruncatedSeries.constant(("x1", "x2"), 0, 4)
    assert spinor_character(1, 4) == TruncatedSeries(
        ("x1",), 4, {(0,): 2, (2,): Fraction(1, 4), (4,): Fraction(1, 192)}
    )


def test_lambda_minus1_dual_values():
    assert lambda_minus1_dual(1, False, 2) == TruncatedSeries(
        ("x1",), 2, {(1,): 1, (2,): Fraction(-1, 2)}
    )
    assert lambda_minus1_dual(1, True, 2) == TruncatedSeries(
        ("x1",), 2, {(2,): -1}
    )
    assert lambda_minus1_dual(0, False, 3) == TruncatedSeries.constant((), 3, 1)


def test_single_level_bose_fermi_product():
    # (1 + e^{-x}) / (1 - e^{-x}) times x equals the fb per-root factor
    D = 6
    m = model_of(("x",), D, ({"x": -1}, 1))
    _, bose_unit = sym_fock_character(m)
    fermi = ext_fock_character(m)
    product = bose_unit * fermi
    assert [product.coefficient((k,)) for k in range(D + 1)] == ref.fb_root_factor(D)


def test_root_model_rejects_constant_or_quadratic_roots():
    bad_const = TruncatedSeries(("x",), 2, {(0,): 1})
    with pytest.raises(ValueError):
        RootModel(("x",), 2, ((bad_const, 1),))
    bad_quad = TruncatedSeries(("x",), 2, {(2,): 1})
    with pytest.raises(ValueError):
        RootModel(("x",), 2, ((bad_quad, 1),))


def test_root_model_json_roundtrip():
    m = model_of(("x", "y"), 3, ({"x": Fraction(-1, 2)}, 1), ({"y": 2}, -1))
    again = RootModel.from_json_dict(m.to_json_dict())
    assert chern_character(again) == chern_character(m)
    assert again.rank == m.rank == 0


def test_fock_character_value():
    import math

    assert fock_character_value("FD", math.log(0.5)) == 1.5
    assert fock_character_value("FD", 800.0) == math.inf
    assert abs(fock_character_value("BE", math.log(0.5)) - 2.0) < 1e-15
    with pytest.raises(DivergenceError):
        fock_character_value("BE", 0.0)
