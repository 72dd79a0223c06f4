import pytest

from seqsteer import InequalityKind, SteeringDirection
from seqsteer.inequalities import Term, evaluate, required_terms, resolve

EXPECTED_TERM_COUNTS = {
    InequalityKind.G1: 7,
    InequalityKind.G2: 7,
    InequalityKind.W1: 19,
    InequalityKind.W2: 19,
}


@pytest.mark.parametrize("kind", list(InequalityKind))
def test_term_counts(kind):
    terms = required_terms(kind)
    assert isinstance(terms, tuple) and all(isinstance(t, Term) for t in terms)
    assert len(terms) == EXPECTED_TERM_COUNTS[kind]


@pytest.mark.parametrize("kind", list(InequalityKind))
def test_every_term_is_unique(kind):
    ops = [t.ops for t in required_terms(kind)]
    assert len(ops) == len(set(ops))


def test_resolve_gives_each_wings_axis_in_wing_order():
    # a numbered setting's axis is its slot, so the sequential observer's
    # slot is its wing's entry, whichever wing hosts the chain
    assert resolve(("A3", "Z", "I")) == (2, 2, None)
    assert resolve(("A1", "B2", "Y")) == (0, 1, 1)
    assert resolve(("I", "I", "X")) == (None, None, 0)


def test_direction_pairing():
    assert InequalityKind.G1.direction is SteeringDirection.ONE_TO_TWO
    assert InequalityKind.W1.direction is SteeringDirection.ONE_TO_TWO
    assert InequalityKind.G2.direction is SteeringDirection.TWO_TO_ONE
    assert InequalityKind.W2.direction is SteeringDirection.TWO_TO_ONE




def test_one_to_two_terms_never_number_the_trusted_wings():
    # with one untrusted party, wings 1 and 2 only carry fixed Paulis
    for kind in (InequalityKind.G1, InequalityKind.W1):
        for term in required_terms(kind):
            for sym in term.ops[1:]:
                assert sym in ("I", "X", "Y", "Z")


def test_two_to_one_terms_number_both_untrusted_wings():
    seen_numbered_bob = False
    for term in required_terms(InequalityKind.G2):
        assert term.ops[2] in ("I", "X", "Y", "Z")
        if term.ops[1].startswith("B"):
            seen_numbered_bob = True
    assert seen_numbered_bob


def test_g1_coefficients():
    by_ops = {t.ops: t.coeff for t in required_terms(InequalityKind.G1)}
    assert by_ops[("I", "Z", "Z")] == pytest.approx(0.1547)
    assert by_ops[("A3", "Z", "I")] == pytest.approx(-1 / 3)
    assert by_ops[("A1", "X", "X")] == pytest.approx(-1 / 3)
    assert by_ops[("A1", "Y", "Y")] == pytest.approx(1 / 3)
    assert by_ops[("A2", "X", "Y")] == pytest.approx(1 / 3)


def test_g2_coefficients():
    by_ops = {t.ops: t.coeff for t in required_terms(InequalityKind.G2)}
    assert by_ops[("A3", "B3", "I")] == pytest.approx(-0.183)
    assert by_ops[("A1", "B1", "X")] == pytest.approx(-0.258)
    assert by_ops[("A1", "B2", "Y")] == pytest.approx(0.258)


def test_evaluate_from_mapping():
    # product state with every correlation zero scores the bare constant
    table = {t.ops: 0.0 for t in required_terms(InequalityKind.G1)}
    assert evaluate(InequalityKind.G1, table) == pytest.approx(1.0)


def test_evaluate_detects_ghz_violation():
    # perfect GHZ correlations entered by hand
    table = {
        ("I", "Z", "Z"): 1.0,
        ("A3", "Z", "I"): 1.0,
        ("A3", "I", "Z"): 1.0,
        ("A1", "X", "X"): 1.0,
        ("A1", "Y", "Y"): -1.0,
        ("A2", "X", "Y"): -1.0,
        ("A2", "Y", "X"): -1.0,
    }
    assert evaluate(InequalityKind.G1, table) == pytest.approx(-0.8453)


def test_evaluate_rejects_out_of_range_expectations():
    table = {t.ops: 0.0 for t in required_terms(InequalityKind.G1)}
    table[("A3", "Z", "I")] = 3.0
    with pytest.raises(ValueError, match="out of"):
        evaluate(InequalityKind.G1, table)


def test_missing_term_is_a_hard_error_naming_it():
    table = {t.ops: 0.0 for t in required_terms(InequalityKind.G2)}
    del table[("A1", "B2", "Y")]
    with pytest.raises(LookupError, match=r"\('A1', 'B2', 'Y'\)"):
        evaluate(InequalityKind.G2, table)


def test_w1_zz_coefficient_is_small_and_negative():
    by_ops = {t.ops: t.coeff for t in required_terms(InequalityKind.W1)}
    assert by_ops[("I", "Z", "Z")] == pytest.approx(-0.0037)
    # the eight cross terms share one magnitude
    for ops in (
        ("A1", "X", "I"),
        ("A1", "I", "X"),
        ("A2", "Y", "I"),
        ("A2", "I", "Y"),
        ("A1", "X", "Z"),
        ("A1", "Z", "X"),
        ("A2", "Y", "Z"),
        ("A2", "Z", "Y"),
    ):
        assert by_ops[ops] == pytest.approx(-0.2533)


def test_w2_coefficients_spot_checks():
    by_ops = {t.ops: t.coeff for t in required_terms(InequalityKind.W2)}
    assert by_ops[("I", "I", "Z")] == pytest.approx(0.3520)
    assert by_ops[("A3", "B3", "Z")] == pytest.approx(0.2228)
    assert by_ops[("A1", "B3", "X")] == pytest.approx(-0.2298)
    assert by_ops[("A3", "B1", "X")] == pytest.approx(-0.2298)
