import copy
import fractions
import pickle

import pytest

from curvlab import scalars
from curvlab.catalog import FamilySpec, instantiate
from curvlab.connection import ConnectionSpec, curvature_of
from curvlab.metric import MetricParams, build_metric
from curvlab.scalars import I, ONE, ZERO, GaussianRational, Rat, gr, rat_from_str
from curvlab.symmetry import kahler_like_check

from conftest import rand_gauss


def test_canonical_form():
    a = gr("2/4")
    assert str(a) == "1/2"
    # the backend keeps denominators positive and reduced
    assert GaussianRational(Rat(-3, -6)) == gr("1/2")
    assert str(GaussianRational(Rat(2, -4))) == "-1/2"
    assert str(GaussianRational(Rat(0), Rat(0))) == "0"


def test_field_axioms_random(rng):
    for _ in range(200):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * (ONE / a) == ONE
        assert a + ZERO == a
        assert a * ONE == a


def test_conjugation_random(rng):
    for _ in range(100):
        a, b = rand_gauss(rng), rand_gauss(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.abs2() == (a * a.conjugate()).re


def test_division():
    assert gr("1/2") / gr("i") == gr("-1/2*i")
    assert (gr("3+4*i") / gr("3+4*i")) == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize("text", ["0", "3", "-1/2", "i", "-i", "-1/2*i",
                                  "3/5+4/5*i", "1-i", "2+3*i", "-7/3-2/9*i"])
def test_string_round_trip(text):
    v = gr(text)
    assert gr(str(v)) == v


def test_format_shapes():
    assert str(gr(3)) == "3"
    assert str(GaussianRational(0, Rat(-1, 2))) == "-1/2*i"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussianRational(Rat(3, 5), Rat(4, 5))) == "3/5+4/5*i"
    assert str(GaussianRational(Rat(1), Rat(-1))) == "1-i"


def test_parse_rejects_garbage():
    for bad in ["", "1 + + i", "2i", "1/2/3", "x", "1+1"]:
        with pytest.raises(ValueError):
            gr(bad)


def test_parse_unicode_minus():
    assert gr("−1") == gr(-1)


def test_immutability():
    a = gr("1/2")
    with pytest.raises(AttributeError):
        a.re = Rat(1)


def test_int_comparisons():
    assert gr(3) == 3
    assert gr("1/2") != 1
    assert gr("i") != 1


@pytest.fixture(params=["fractions", "gmpy2"])
def backend(request, monkeypatch):
    """Each rational backend in turn, patched over the one the import chose."""
    if request.param == "gmpy2":
        rat = pytest.importorskip("gmpy2").mpq
    else:
        rat = fractions.Fraction
    monkeypatch.setattr(scalars, "Rat", rat)
    return rat


def test_rat_from_str_grammar(backend):
    for text, (p, q) in [("3", (3, 1)), ("-6/4", (-3, 2)), ("+1/2", (1, 2)), (" −2/3 ", (-2, 3))]:
        value = rat_from_str(text)
        assert type(value) is backend
        assert value == backend(p, q)


@pytest.mark.parametrize("parse, text", [(rat_from_str, "3/0"), (rat_from_str, "-3/0"),
                                         (gr, "1/0*i"), (gr, "1/0"), (gr, "2-1/0*i")])
def test_zero_denominator_is_named(backend, parse, text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse(text)


def test_malformed_literal_message_is_backend_independent(backend):
    for bad in ["abc", "0.5", "1e0", "1/2/3", "", "3/", "/2", "1/-2", "1 /2"]:
        with pytest.raises(ValueError) as info:
            rat_from_str(bad)
        assert str(info.value) == f"bad rational literal {bad!r}; expected p or p/q"
    for bad in ["0.1", "1/2/3", "x"]:
        with pytest.raises(ValueError) as info:
            gr(bad)
        assert str(info.value) == f"bad scalar literal {bad!r}"


def test_pickle_and_copy_round_trip(backend):
    value = GaussianRational(backend(1, 2), backend(-3, 4))
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value
        assert type(twin.re) is backend and type(twin.im) is backend
        with pytest.raises(AttributeError):
            twin.re = backend(0)


def test_pickled_report_keeps_its_witnesses():
    alg = instantiate(FamilySpec.make("Np", rho=1))
    h = build_metric(MetricParams.make(r2=1, s2=2, t2=3, u="1/5*i"))
    report = kahler_like_check(curvature_of(ConnectionSpec.preset("lc"), h, alg))
    assert report.type_residues or report.bianchi_residues
    assert pickle.loads(pickle.dumps(report)) == report
