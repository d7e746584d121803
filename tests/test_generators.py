import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmix.generators import (
    CharacteristicGenerator,
    GeneratorError,
    cg_eval,
    mixing_law,
    sample_mixing,
)

ALL_GENERATORS = [
    CharacteristicGenerator.normal(),
    CharacteristicGenerator.student_t(4.0),
    CharacteristicGenerator.student_t(1.5),
    CharacteristicGenerator.cauchy(),
    CharacteristicGenerator.pearson_vii(2.0, 1.0),
    CharacteristicGenerator.discrete_mixture([(0.5, 1.0), (0.5, 2.0)]),
]


def test_psi_at_zero_is_one():
    for g in ALL_GENERATORS:
        assert cg_eval(g, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_normal_closed_form():
    g = CharacteristicGenerator.normal()
    assert cg_eval(g, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_cauchy_closed_form():
    g = CharacteristicGenerator.cauchy()
    for u in [0.25, 1.0, 4.0]:
        assert cg_eval(g, u) == pytest.approx(math.exp(-math.sqrt(u)), rel=1e-12)


def test_discrete_mixture_value():
    # 0.5 e^{-1/2} + 0.5 e^{-2}, cross-checked by Monte Carlo below
    g = CharacteristicGenerator.discrete_mixture([(0.5, 1.0), (0.5, 2.0)])
    expected = 0.5 * math.exp(-0.5) + 0.5 * math.exp(-2.0)
    assert cg_eval(g, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.3709, abs=5e-5)


def test_negative_u_rejected():
    with pytest.raises(GeneratorError):
        cg_eval(CharacteristicGenerator.normal(), -0.1)
    with pytest.raises(GeneratorError, match="not nan"):  # not a NaN value of psi
        cg_eval(CharacteristicGenerator.normal(), math.nan)


@pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.kind + str(g.nu or ""))
def test_psi_matches_monte_carlo(g):
    w = sample_mixing(g, 10**6, seed=123)
    for u in [0.0, 0.5, 1.0, 5.0, 25.0]:
        draws = np.exp(-u * w / 2.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(cg_eval(g, u) - draws.mean()) <= max(3 * se, 1e-12)


@pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.kind + str(g.nu or ""))
def test_psi_in_unit_interval_and_nonincreasing(g):
    grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0]
    vals = [cg_eval(g, u) for u in grid]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_normal_mixing_degenerate():
    assert np.array_equal(sample_mixing(CharacteristicGenerator.normal(), 3, 99), [1, 1, 1])


def test_single_atom_mixing():
    g = CharacteristicGenerator.discrete_mixture([(1.0, 3.0)])
    assert np.array_equal(sample_mixing(g, 2, 1), [9.0, 9.0])


def test_student_t_mixing_mean():
    # E[W] = nu/(nu-2) for the inverse-gamma mixing law
    w = sample_mixing(CharacteristicGenerator.student_t(4.0), 10**6, seed=7)
    assert w.mean() == pytest.approx(2.0, rel=0.01)
    assert np.all(w >= 0)


def test_mixing_deterministic_per_seed():
    g = CharacteristicGenerator.student_t(3.0)
    assert np.array_equal(sample_mixing(g, 100, 5), sample_mixing(g, 100, 5))
    assert not np.array_equal(sample_mixing(g, 100, 5), sample_mixing(g, 100, 6))


def test_bad_parameters_rejected():
    with pytest.raises(GeneratorError):
        CharacteristicGenerator.student_t(-1.0)
    with pytest.raises(GeneratorError):
        CharacteristicGenerator.pearson_vii(0.4, 1.0)
    with pytest.raises(GeneratorError):
        CharacteristicGenerator.discrete_mixture([(0.5, 1.0), (0.6, 2.0)])
    with pytest.raises(GeneratorError):
        sample_mixing(CharacteristicGenerator.normal(), 0, 1)


@pytest.mark.parametrize(
    "kind, own, stray",
    [
        ("normal", {}, {"nu": 5.0}),
        ("cauchy", {}, {"atoms": ((1.0, 1.0),)}),
        ("student_t", {"nu": 3.0}, {"shape": 2.0, "scale": 1.0}),
        ("student_t", {"nu": 3.0}, {"scale": math.nan}),
        ("pearson_vii", {"shape": 2.0, "scale": 1.0}, {"nu": 3.0}),
        ("discrete_mixture", {"atoms": ((1.0, 1.0),)}, {"nu": 1.0}),
    ],
)
def test_fields_the_kind_does_not_have_are_refused(kind, own, stray):
    # spec() drops such a field while == compares it, so the two would disagree
    g = CharacteristicGenerator(kind, **own)
    assert CharacteristicGenerator.from_spec(g.spec()) == g
    with pytest.raises(GeneratorError, match=re.escape(f"has only the fields {['kind', *own]}")):
        CharacteristicGenerator(kind, **own, **stray)


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([], "a finite law needs at least one atom"),
        ([(0.0, 1.0), (1.0, 2.0)], "atoms must have weights and values positive and finite"),
        ([(1.5, 1.0)], "atom weights must sum to 1 within 1e-9"),
        ([(0.5, 1.0), (0.5, -2.0)], "atoms must have weights and values positive and finite"),
        ([(0.5, 1.0), (0.5 + 2e-9, 2.0)], "atom weights must sum to 1 within 1e-9"),
        ([(math.nan, 1.0)], "atoms must have weights and values positive and finite"),
        ([(0.5, 1.0), (math.nan, 2.0)], "atoms must have weights and values positive and finite"),
        ([(1.0, math.nan)], "atoms must have weights and values positive and finite"),
        ([(1.0, math.inf)], "atoms must have weights and values positive and finite"),
        # the law checked is that of W = scale^2, which overflows or underflows here
        ([(1.0, 1e200)], "atoms must have weights and values positive and finite"),
        ([(0.5, 1.0), (0.5, 1e-200)], "atoms must have weights and values positive and finite"),
    ],
)
def test_discrete_mixture_atoms_checked_with_messages(atoms, message):
    with pytest.raises(GeneratorError, match=re.escape(message)):
        CharacteristicGenerator("discrete_mixture", atoms=tuple(atoms))


def test_discrete_mixture_weights_within_the_sum_tolerance_are_normalised():
    # the one rule for finite laws: a sum off by at most 1e-9 is accepted and
    # the weights are divided by it
    g = CharacteristicGenerator.discrete_mixture([(0.5, 1.0), (0.5 + 5e-10, 2.0)])
    (p1, _), (p2, _) = mixing_law(g).atoms
    total = 1.0 + 5e-10
    assert (p1, p2) == (0.5 / total, (0.5 + 5e-10) / total)
    assert g.spec()["atoms"] == [[0.5, 1.0], [0.5 + 5e-10, 2.0]]


def test_spec_round_trip():
    for g in ALL_GENERATORS:
        assert CharacteristicGenerator.from_spec(g.spec()) == g


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.1, 5.0)), min_size=1, max_size=4
    ),
    st.floats(0.0, 20.0),
)
def test_mixture_psi_monotone_property(raw_atoms, u):
    total = sum(w for w, _ in raw_atoms)
    atoms = [(w / total, s) for w, s in raw_atoms]
    g = CharacteristicGenerator.discrete_mixture(atoms)
    assert cg_eval(g, u) >= cg_eval(g, u + 0.5) - 1e-12


def test_student_t_infinite_nu_is_normal():
    g = CharacteristicGenerator.student_t(math.inf)
    assert mixing_law(g).kind == "degenerate"
    assert np.array_equal(sample_mixing(g, 3, 1), np.ones(3))
    for u in [0.0, 1e-8, 0.5, 2.0, 50.0, math.inf]:
        assert cg_eval(g, u) == math.exp(-u / 2.0)


@pytest.mark.parametrize("nu", [math.inf, "inf", "Infinity"])
def test_student_t_infinite_nu_spec_reads_old_and_new_forms(nu):
    # spec() writes "inf", which strict JSON accepts; older files hold the float
    g = CharacteristicGenerator.student_t(math.inf)
    assert g.spec() == {"kind": "student_t", "nu": "inf"}
    assert CharacteristicGenerator.from_spec({"kind": "student_t", "nu": nu}) == g
    assert CharacteristicGenerator.student_t(3.0).spec() == {"kind": "student_t", "nu": 3.0}


@pytest.mark.parametrize(
    "text",
    ["student_t:nan", "pearson_vii:nan:1", "pearson_vii:2:nan", "pearson_vii:inf:1",
     "pearson_vii:2:inf", "normal:7", "cauchy:1",
     "student_t:3:4", "student_t", "pearson_vii:2", "discrete_mixture", "laplace"],
)
def test_parse_rejects_nan_and_field_counts(text):
    with pytest.raises(GeneratorError):
        CharacteristicGenerator.parse(text)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "student_t", "nu": math.nan},
        {"kind": "student_t", "nu": "nan"},
        {"kind": "pearson_vii", "shape": math.nan, "scale": 1.0},
        {"kind": "pearson_vii", "shape": 2.0, "scale": math.nan},
        {"kind": "discrete_mixture", "atoms": [[math.nan, 1.0]]},
        {"kind": "normal", "nu": 3.0},
        {"kind": "student_t"},
        {"kind": "student_t", "nu": 3.0, "shape": 2.0},
        {"kind": "laplace"},
    ],
)
def test_from_spec_rejects_nan_and_field_sets(spec):
    with pytest.raises(GeneratorError):
        CharacteristicGenerator.from_spec(spec)


def test_parse_reads_every_compact_kind():
    for text, g in [("normal", CharacteristicGenerator.normal()),
                    ("student_t:3", CharacteristicGenerator.student_t(3.0)),
                    ("student_t:inf", CharacteristicGenerator.student_t(math.inf)),
                    ("cauchy", CharacteristicGenerator.cauchy()),
                    ("pearson_vii:2:1", CharacteristicGenerator.pearson_vii(2.0, 1.0))]:
        assert CharacteristicGenerator.parse(text) == g
