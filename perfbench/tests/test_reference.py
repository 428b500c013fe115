"""The benchmark's own closed forms and exact expansions."""

from fractions import Fraction

import reference as ref


def test_textbook_minima():
    assert ref.gp_textbook(0.0, -1.0) == 3.0
    assert ref.thc_textbook(0.0, 0.0) == 0.0
    assert ref.GP_MIN == 3.0 and ref.THC_MIN == 0.0


def test_exact_expansions_match_the_textbook_formulas():
    gp, thc = ref.gp_exact(), ref.thc_exact()
    assert len(gp) == 45 and len(thc) == 5
    for x, y in [(0, -1), (Fraction(1, 2), Fraction(-3, 4)), (2, 2), (-1, Fraction(1, 3))]:
        assert sum(c * x**e[0] * y**e[1] for e, c in gp.items()) == ref.gp_textbook(Fraction(x), Fraction(y))
        assert sum(c * x**e[0] * y**e[1] for e, c in thc.items()) == (
            2 * Fraction(x)**2 - Fraction(21, 20) * Fraction(x)**4 + Fraction(x)**6 / 6 + Fraction(x) * y + Fraction(y)**2)


def test_gp_factors_recombine_under_the_decoupling_substitution():
    h, g = ref.gp_h_exact(), ref.gp_g_exact()
    s, t = ref.lin(2, (1, 1)), ref.lin(2, (2, -3))

    def compose(p, image):
        out = {}
        for (e,), c in p.items():
            out = ref.add(out, ref.scale(ref.power(image, e, 2), c))
        return out

    assert ref.mul(compose(h, s), compose(g, t)) == ref.gp_exact()


def test_term_lists_parse_exactly():
    text = "3/1 4 0 | -18014398509481983/1125899906842624 1 2 | 30/1 0 0"
    assert ref.parse_terms(text, 2) == {
        (4, 0): Fraction(3), (1, 2): Fraction(-18014398509481983, 1125899906842624), (0, 0): Fraction(30)}


def test_lattice_min_is_the_known_minimum_on_a_lattice_through_it():
    value, x = ref.lattice_min(ref.gp_textbook, ref.GP_BOX, 401)
    assert value == 3.0 and x == (0.0, -1.0)
    value, x = ref.lattice_min(ref.thc_textbook, ref.THC_BOX, 201)
    assert value == 0.0 and x == (0.0, 0.0)
