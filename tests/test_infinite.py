import contextlib
import io
import json
from fractions import Fraction
from math import comb

import pytest

from mobiuskit import cli, infinite
from mobiuskit.category import validate_category
from mobiuskit.errors import MalformedInput, NotInvertible, UnsupportedRig
from mobiuskit.incidence import coarse_mobius, fine_mobius
from mobiuskit.infinite import (
    PatchOracleCategory,
    builtin,
    family_mobius,
    oracle_zeta,
    patchwise_mobius,
)
from mobiuskit.matrixrig import RigMatrix
from mobiuskit.rigs import BOOL, INT, NAT, RAT, REAL, Rig
from corpus import materialize
from leroux import chain_counts
from oracles import classical_mobius


def test_oracle_zeta_formulas():
    dinj = builtin("dinj")
    assert oracle_zeta(dinj, 2, 4, INT) == comb(4, 2)
    dsurj = builtin("dsurj")
    assert oracle_zeta(dsurj, 4, 2, INT) == comb(3, 1)
    nat = builtin("nat_leq")
    assert oracle_zeta(nat, 3, 5, INT) == 1
    assert oracle_zeta(nat, 5, 3, INT) == 0


def test_oracle_zeta_requires_characteristic_zero():
    strange = Rig(
        name="z2ish",
        zero=0,
        one=1,
        add=lambda a, b: (a + b) % 2,
        mul=lambda a, b: (a * b) % 2,
        eq=lambda a, b: a == b,
        from_int=lambda n: n % 2,
        characteristic_zero=False,
    )
    with pytest.raises(UnsupportedRig):
        oracle_zeta(builtin("dinj"), 1, 2, strange)


def test_builtin_hom_counts():
    dinj = builtin("dinj")
    dsurj = builtin("dsurj")
    for m in range(9):
        for n in range(9):
            # a monotone injection [m] -> [n] is its image, an m-subset of [n];
            # a monotone surjection cuts the m - 1 gaps of [m] in n - 1 places
            assert dinj.hom_count(m, n) == comb(n, m)
            surjections = comb(m - 1, n - 1) if m >= n >= 1 else int(m == n == 0)
            assert dsurj.hom_count(m, n) == surjections
    div = builtin("divisibility")
    assert div.patch_objects(2, 12) == (2, 4, 6, 12)
    nat = builtin("nat_leq")
    assert nat.patch_objects(3, 5) == (3, 4, 5)


def test_dsurj_zero_object_conventions():
    dsurj = builtin("dsurj")
    assert dsurj.hom_count(0, 0) == 1
    assert dsurj.hom_count(3, 0) == 0
    assert dsurj.hom_count(0, 3) == 0
    assert dsurj.patch_objects(0, 0) == (0,)
    assert patchwise_mobius(dsurj, 0, 0, RAT) == 1


def test_patchwise_mobius_dinj_formula():
    dinj = builtin("dinj")
    for m in range(0, 8):
        for n in range(0, 8):
            got = patchwise_mobius(dinj, m, n, RAT)
            want = Fraction((-1) ** (n - m) * comb(n, m)) if m <= n else Fraction(0)
            assert got == want, (m, n)


def test_patchwise_mobius_dsurj_formula():
    dsurj = builtin("dsurj")
    for m in range(0, 8):
        for n in range(0, 8):
            got = patchwise_mobius(dsurj, m, n, RAT)
            if m == n == 0:
                want = Fraction(1)
            elif n >= 1 and m >= n:
                want = Fraction((-1) ** (m - n) * comb(m - 1, n - 1))
            else:
                want = Fraction(0)
            assert got == want, (m, n)


def test_patchwise_mobius_divisibility_matches_classical():
    div = builtin("divisibility")
    for b in range(1, 40):
        for a in range(1, b + 1):
            if b % a == 0:
                assert patchwise_mobius(div, a, b, INT) == classical_mobius(b // a)
            else:
                assert patchwise_mobius(div, a, b, INT) == 0


def test_classical_mobius_brute_force_values():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
    for n, want in values.items():
        assert classical_mobius(n) == want
    with pytest.raises(MalformedInput):
        classical_mobius(0)


def test_divisibility_cross_checked_by_hall_oracle():
    div = builtin("divisibility")
    for (a, b) in [(1, 12), (2, 24), (1, 30), (3, 36)]:
        materialized = materialize("divisibility", a, b)
        assert validate_category(materialized).ok
        hall = chain_counts(materialized)
        assert patchwise_mobius(div, a, b, INT) == hall[("le", a, b)]


def test_patchwise_matches_materialized_coarse_mobius():
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        if family == "dinj":
            pairs = [(a, b) for a in range(0, 4) for b in range(a, min(a + 6, 7))]
        elif family == "dsurj":
            pairs = [(a, b) for b in range(0, 4) for a in range(b, min(b + 6, 7)) if b >= 1] + [(0, 0)]
        elif family == "divisibility":
            pairs = [(a, b) for a in range(1, 13) for b in range(a, 37) if b % a == 0]
        else:
            pairs = [(a, b) for a in range(0, 5) for b in range(a, a + 6)]
        for (a, b) in pairs:
            materialized = materialize(family, a, b)
            assert validate_category(materialized).ok, (family, a, b)
            coarse = coarse_mobius(materialized, RAT)
            assert patchwise_mobius(oracle, a, b, RAT) == coarse.value(a, b), (family, a, b)


def test_patch_coherence():
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        probes = [(0, 4), (1, 5), (4, 1), (1, 12), (2, 24)]
        for (a, b) in probes:
            objs = oracle.patch_objects(a, b)
            for c in objs:
                inner = set(oracle.patch_objects(a, c))
                assert inner <= set(objs), (family, a, b, c)


def test_patch_objects_match_hom_counts():
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        universe = range(0, 9) if family != "divisibility" else range(1, 25)
        for a in universe:
            for b in universe:
                expected = tuple(
                    c
                    for c in universe
                    if oracle.hom_count(a, c) > 0 and oracle.hom_count(c, b) > 0
                )
                assert tuple(oracle.patch_objects(a, b)) == expected, (family, a, b)


def test_divisibility_patches_match_trial_division():
    # the old definition: the divisors of b, by trial division, that a divides
    divisors = {b: tuple(d for d in range(1, b + 1) if b % d == 0) for b in range(1, 241)}
    patch_objects = builtin("divisibility").patch_objects
    for a in range(1, 241):
        for b in range(1, 241):
            expected = tuple(d for d in divisors[b] if d % a == 0) if b % a == 0 else ()
            assert patch_objects(a, b) == expected, (a, b)


def test_zero_pattern_inherited_patchwise():
    for family in ("dinj", "dsurj", "nat_leq"):
        oracle = builtin(family)
        for a in range(0, 6):
            for b in range(0, 6):
                if oracle.hom_count(a, b) == 0:
                    assert patchwise_mobius(oracle, a, b, RAT) == 0


def test_materialized_patches_support_fine_theory():
    dinj = builtin("dinj")
    patch = materialize("dinj", 0, 3)
    mu = fine_mobius(patch, RAT)
    from mobiuskit.incidence import fine_zeta, verify_inverse

    assert verify_inverse(mu, fine_zeta(patch, RAT))


def test_singular_patch_is_reported_with_location():
    flawed = PatchOracleCategory(
        name="flawed",
        hom_count=lambda a, b: 1,
        patch_objects=lambda a, b: (a, b) if a != b else (a,),
    )
    with pytest.raises(NotInvertible) as err:
        patchwise_mobius(flawed, 0, 1, RAT)
    assert err.value.witness == ("patch", 0, 1)


def table_outcome(compute):
    try:
        matrix = compute()
    except NotInvertible as e:
        return ("not_invertible", str(e), e.witness)
    return [[(type(x), x) for x in row] for row in matrix.rows]


def per_pair_table(oracle, start, end, rig):
    indices = range(start, end + 1)
    return table_outcome(
        lambda: RigMatrix.from_rows(rig, [[patchwise_mobius(oracle, m, n, rig) for n in indices] for m in indices])
    )


def test_family_table_matches_per_pair_patchwise():
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        least = 1 if family == "divisibility" else 0
        for start, end in ((least, least), (least, 12), (3, 9), (5, 17), (least, 24)):
            for rig in (RAT, INT, REAL):
                expected = per_pair_table(oracle, start, end, rig)
                assert table_outcome(lambda: family_mobius(oracle, start, end, rig)) == expected, (
                    family, start, end, rig.name
                )
                # the same table from every pair's count, without targets
                untargeted = PatchOracleCategory(oracle.name, oracle.hom_count, oracle.patch_objects)
                assert table_outcome(lambda: family_mobius(untargeted, start, end, rig)) == expected


def test_family_table_falls_back_per_pair():
    singular = PatchOracleCategory(
        name="singular",
        hom_count=lambda a, b: 1,
        patch_objects=lambda a, b: (a, b) if a != b else (a,),
    )
    doubled = PatchOracleCategory(
        name="doubled",
        hom_count=lambda a, b: 2 if a == b else 0,
        patch_objects=lambda a, b: (a,) if a == b else (),
    )
    # 0 < 2 < 1: the patch of (0, 1) leaves the range 0..1, where a single
    # inversion would see the chain 0 < 1 and answer -1
    reordered = PatchOracleCategory(
        name="reordered",
        hom_count=lambda a, b: 1 if (a, b) in {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (2, 1)} else 0,
        patch_objects=lambda a, b: {(0, 1): (0, 2, 1), (0, 2): (0, 2), (2, 1): (2, 1)}.get((a, b), (a,) if a == b else ()),
    )
    # maps 0 -> 1 -> 2 but none 0 -> 2: the coarse inverse is 1 at (0, 2)
    uncomposed = PatchOracleCategory(
        name="uncomposed",
        hom_count=lambda a, b: 1 if b - a in (0, 1) else 0,
        patch_objects=lambda a, b: (a, b) if b - a == 1 else (a,) if a == b else (),
    )
    for oracle, start, end, rig in (
        (singular, 0, 2, RAT),
        (doubled, 0, 2, INT),
        (doubled, 0, 2, RAT),
        (reordered, 0, 1, RAT),
        (uncomposed, 0, 2, INT),
    ):
        assert table_outcome(lambda: family_mobius(oracle, start, end, rig)) == per_pair_table(
            oracle, start, end, rig
        )
    with pytest.raises(NotInvertible) as err:
        family_mobius(singular, 0, 2, RAT)
    assert err.value.witness == ("patch", 0, 1)
    assert family_mobius(reordered, 0, 1, RAT).rows == ((1, 0), (0, 1))
    assert family_mobius(uncomposed, 0, 2, INT).entry(0, 2) == 0


def test_builtin_tables_take_one_inversion(monkeypatch):
    # every built-in family keeps its patches inside any interval and its
    # inverse on the counts' support, so no table falls back pair by pair
    def patchwise_mobius(c, a, b, rig):
        raise AssertionError("a built-in table took the per-pair path")

    monkeypatch.setattr(infinite, "patchwise_mobius", patchwise_mobius)
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        start, end = (1, 240) if family == "divisibility" else (0, 12)
        for rig in (INT, RAT, REAL):
            table = family_mobius(oracle, start, end, rig)
            assert table.n == end - start + 1
    divisibility = family_mobius(builtin("divisibility"), 1, 240, INT)
    assert [divisibility.entry(0, n - 1) for n in range(1, 241)] == [classical_mobius(n) for n in range(1, 241)]


def test_builtin_targets_cover_every_map():
    # targets(m, start, end) lies in start..end and lists every n there
    # with a map m -> n, also for empty, reversed and negative ranges
    for family in ("dinj", "dsurj", "divisibility", "nat_leq"):
        oracle = builtin(family)
        maps = 0
        for start, end in ((0, 12), (1, 30), (-5, 7), (-9, -2), (5, 4), (3, 3), (7, 2), (12, 40)):
            interval = set(range(start, end + 1))
            for m in range(-6, 45):
                listed = set(oracle.targets(m, start, end))
                targets = {n for n in interval if oracle.hom_count(m, n)}
                assert targets <= listed <= interval, (family, m, start, end)
                maps += len(targets)
        assert maps > 100, family


def test_family_table_refuses_targets_outside_the_range():
    # a listed n below start would land in a column counted from the end of
    # the row, one above end past it
    nat_leq = builtin("nat_leq")
    for start, end, listed in ((2, 6, lambda m: (m - 1, m)), (2, 6, lambda m: (m, m + 3)), (0, 3, lambda m: (m, 7))):
        stray = PatchOracleCategory(
            nat_leq.name, nat_leq.hom_count, nat_leq.patch_objects,
            targets=lambda m, start, end, listed=listed: listed(m),
        )
        with pytest.raises(MalformedInput, match=f"targets of nat_leq list .* outside {start}..{end}"):
            family_mobius(stray, start, end, INT)


def test_family_table_needs_a_rig_an_exact_solve_lands_in():
    message = "inversion of counting matrices unsupported over '{}'"
    with pytest.raises(UnsupportedRig, match=message.format("nat")):
        family_mobius(builtin("dinj"), 0, 3, NAT)
    # also where no inversion is needed: an empty range, and a range of
    # divisibility with no maps
    for start, end in ((3, 2), (-2, 0)):
        with pytest.raises(UnsupportedRig, match=message.format("bool")):
            family_mobius(builtin("divisibility"), start, end, BOOL)
    assert family_mobius(builtin("divisibility"), -2, 0, RAT).rows == ((0,) * 3,) * 3
    assert family_mobius(builtin("divisibility"), 3, 2, RAT).rows == ()


def test_unknown_family():
    with pytest.raises(MalformedInput):
        builtin("dfun")


# family tables at the --family cap against closed forms: the classical
# mu(n / m) on divisibility, -1 next to the diagonal on nat_leq, and the
# signed binomials on dinj and dsurj


def dsurj_mu(m, n):
    if m == n == 0:
        return 1
    return (-1) ** (m - n) * comb(m - 1, n - 1) if m >= n >= 1 else 0


CLOSED_FORMS = {
    "divisibility": (1, 500, lambda m, n: classical_mobius(n // m) if n % m == 0 else 0),
    "nat_leq": (0, 500, lambda m, n: {0: 1, 1: -1}.get(n - m, 0)),
    "dinj": (0, 40, lambda m, n: (-1) ** (n - m) * comb(n, m) if m <= n else 0),
    "dsurj": (0, 40, dsurj_mu),
}


def one_inversion_only(monkeypatch):
    """Make a table that falls back pair by pair fail at once: at these
    sizes the per-pair path would take hours."""
    def patchwise_mobius(c, a, b, rig):
        raise AssertionError("a built-in table took the per-pair path")

    monkeypatch.setattr(infinite, "patchwise_mobius", patchwise_mobius)


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_family_tables_at_the_cap_match_closed_forms(monkeypatch, family):
    one_inversion_only(monkeypatch)
    start, end, mu = CLOSED_FORMS[family]
    indices = range(start, end + 1)
    expected = [[mu(m, n) for n in indices] for m in indices]
    for rig, kind in ((INT, int), (RAT, Fraction)):
        table = family_mobius(builtin(family), start, end, rig)
        assert [list(row) for row in table.rows] == expected, rig.name
        assert {type(x) for row in table.rows for x in row} == {kind}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_family_reports_at_the_cap_match_closed_forms(monkeypatch, family):
    # nat_leq 0..500 is one index beyond the CLI's cap, so its report stops at 499
    one_inversion_only(monkeypatch)
    start, end, mu = CLOSED_FORMS[family]
    end = min(end, start + cli.MAX_FAMILY_INDICES - 1)
    indices = range(start, end + 1)
    expected = [[str(mu(m, n)) for n in indices] for m in indices]
    for rig in ("rat", "int"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["mobius", "--family", family, "--from", str(start), "--to", str(end), "--rig", rig])
        report = json.loads(out.getvalue())
        assert code == 0 and report["rig"] == rig
        assert report["results"]["mobius"] == expected
        assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
