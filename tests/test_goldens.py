import random

import pytest

from curvlab.catalog import FamilySpec
from curvlab.goldens import (
    ORACLE_FAMILIES,
    OracleCase,
    OracleDomainError,
    appendix_oracle,
    compare_components,
)
from curvlab.metric import MetricParams
from curvlab.scalars import GaussianRational, Rat, gr


NI_POINT = FamilySpec.make("Ni", rho=1, **{"lambda": 0}, D=0)


def _got(case):
    """The pipeline's components, the `got` column of compare_components, by label."""
    rows = compare_components(case.family_key, case.structure, case.metric, (case.eps,))
    return {label: got for _, label, _, got, _ in rows}


def test_table_shapes():
    case = OracleCase("Ni", NI_POINT, MetricParams.make(r2=1, s2=1, t2=1), Rat(1, 2))
    table = appendix_oracle(case)
    assert sum(1 for k in table if k.startswith("R[")) == 12
    assert sum(1 for k in table if k.startswith("B[")) == 13

    case = OracleCase("Si-B0", FamilySpec.make("Si", A="1"),
                      MetricParams.make(u="1/2"), Rat(0))
    assert len(appendix_oracle(case)) == 4

    case = OracleCase("Si-g20", FamilySpec.make("Si", A="i"),
                      MetricParams.make(v="1/3", z="1/4"), Rat(1, 4))
    table = appendix_oracle(case)
    assert sum(1 for k in table if k.startswith("R[")) == 6
    assert sum(1 for k in table if k.startswith("B[")) == 10


def test_frozen_ni_point():
    # at (rho=1, lambda=0, D=0, s2=t2=1, u=0, eps=1/2):
    # R[1,2,1,1b] = 2 eps (1-eps) = 1/2 and B[1,1b,2,2b] = -4 eps^2 = -1
    case = OracleCase("Ni", NI_POINT, MetricParams.make(r2=1, s2=1, t2=1), Rat(1, 2))
    table = appendix_oracle(case)
    assert table["R[1,2,1,1b]"] == gr("1/2")
    assert table["B[1,1b,2,2b]"] == gr(-1)
    got = _got(case)
    assert got["R[1,2,1,1b]"] == gr("1/2")
    assert got["B[1,1b,2,2b]"] == gr(-1)


def test_frozen_si_b0_point():
    # at r2 = s2 = t2 = 1, u = 1/2: B0[1,3b,3,1b] = 2 * (1/4) / (3/4) = 2/3
    case = OracleCase("Si-B0", FamilySpec.make("Si", A="1"),
                      MetricParams.make(u="1/2"), Rat(0))
    table = appendix_oracle(case)
    assert table["B[1,3b,3,1b]"] == gr("2/3")
    assert _got(case)["B[1,3b,3,1b]"] == gr("2/3")


def test_g20_table_vanishes_at_diagonal():
    # every listed component carries a factor of v or z
    case = OracleCase("Si-g20", FamilySpec.make("Si", A="i"),
                      MetricParams.make(r2=2, s2=1, t2="3/2"), Rat(1, 3))
    assert all(v.is_zero() for v in appendix_oracle(case).values())
    assert all(v.is_zero() for v in _got(case).values())


def _rand_rat(rng):
    return Rat(rng.randint(1, 6), rng.randint(1, 3))


def _small(rng, den=5):
    return GaussianRational(Rat(rng.randint(-2, 2), den), Rat(rng.randint(-2, 2), den))


def test_ni_table_matches_pipeline():
    rng = random.Random(11)
    eps_values = (Rat(0), Rat(1, 6), Rat(1, 4), Rat(1, 3), Rat(1, 2))
    for rho in (0, 1):
        lam = Rat(rng.randint(0, 3), rng.randint(1, 3))
        d = GaussianRational(Rat(rng.randint(-3, 3), rng.randint(1, 3)),
                             Rat(rng.randint(0, 3), rng.randint(1, 3)))
        st = FamilySpec.make("Ni", rho=rho, **{"lambda": lam}, D=d)
        for _ in range(3):
            s2 = _rand_rat(rng)
            u = _small(rng)
            m = MetricParams.make(r2=1, s2=s2, t2=_rand_rat(rng), u=u)
            if m.constraint_failures():
                continue
            rows = compare_components("Ni", st, m, eps_values)
            assert all(ok for *_, ok in rows), [r for r in rows if not r[-1]]


def test_si_b0_table_matches_pipeline_all_a():
    rng = random.Random(12)
    for a in ("1", "i", "3/5+4/5*i"):
        st = FamilySpec.make("Si", A=a)
        for _ in range(3):
            m = MetricParams.make(r2=_rand_rat(rng), s2=_rand_rat(rng),
                                  t2=_rand_rat(rng), u=_small(rng))
            if m.constraint_failures():
                continue
            rows = compare_components("Si-B0", st, m, (Rat(0),))
            assert all(ok for *_, ok in rows)


def test_g20_table_matches_pipeline():
    rng = random.Random(13)
    st = FamilySpec.make("Si", A="i")
    for _ in range(4):
        m = MetricParams.make(r2=_rand_rat(rng), s2=_rand_rat(rng), t2=_rand_rat(rng),
                              v=_small(rng, 6), z=_small(rng, 6))
        if m.constraint_failures():
            continue
        rows = compare_components("Si-g20", st, m, (Rat(0), Rat(1, 4), Rat(1, 2)))
        assert all(ok for *_, ok in rows)


def test_domain_rejections():
    with pytest.raises(OracleDomainError):  # Ni table needs r2 = 1
        appendix_oracle(OracleCase("Ni", NI_POINT, MetricParams.make(r2=2), Rat(0)))
    with pytest.raises(OracleDomainError):  # Ni table needs v = z = 0
        appendix_oracle(OracleCase("Ni", NI_POINT, MetricParams.make(v="1/3"), Rat(0)))
    with pytest.raises(OracleDomainError):  # Si-B0 is Chern only
        appendix_oracle(OracleCase("Si-B0", FamilySpec.make("Si", A="1"),
                                   MetricParams.make(), Rat(1, 2)))
    with pytest.raises(OracleDomainError,  # every eps given is checked
                       match=r"^the Si-B0 table is for the Chern connection \(eps = 0\)$"):
        compare_components("Si-B0", FamilySpec.make("Si", A="1"), MetricParams.make(),
                           (Rat(0), Rat(1, 2)))
    with pytest.raises(OracleDomainError):  # g20 table needs A = i
        appendix_oracle(OracleCase("Si-g20", FamilySpec.make("Si", A="1"),
                                   MetricParams.make(), Rat(0)))
    with pytest.raises(OracleDomainError):  # g20 table needs u = 0
        appendix_oracle(OracleCase("Si-g20", FamilySpec.make("Si", A="i"),
                                   MetricParams.make(u="1/3"), Rat(0)))
    with pytest.raises(OracleDomainError):  # unknown table
        appendix_oracle(OracleCase("Nix", NI_POINT, MetricParams.make(), Rat(0)))
    assert ORACLE_FAMILIES == ("Ni", "Si-B0", "Si-g20")
