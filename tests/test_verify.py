from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from runwords import cli, numerics, verify
from runwords.interval import Interval


def test_table1_cells_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="n_max"):
        verify.table1_cells(2, 0)


@pytest.mark.parametrize(
    "name, wrong",
    # Each just outside the range of the true values for k = 2..20.
    [("phi", Fraction(2)), ("inverse_phi", Fraction(1, 2)), ("limit_value", Fraction(1, 2))],
    ids=["phi", "inverse_phi", "limit_value"],
)
def test_enclosure_soundness_catches_a_self_consistent_wrong_value(monkeypatch, name, wrong):
    # A point enclosure agrees with itself at every precision, so only the
    # independent mpmath reference can tell that it is wrong.  The check
    # sees the wrong function alone: the others keep the true values.
    def point(k, precision_digits=15):
        return Interval(wrong, wrong)

    point.__name__ = name
    functions = {f: getattr(numerics, f) for f in ("phi", "inverse_phi", "limit_value")}
    monkeypatch.setattr(verify, "numerics", SimpleNamespace(**{**functions, name: point}))
    result = verify.check_enclosure_soundness()
    assert not result.passed
    assert result.detail.startswith(f"{name}(k=")


@pytest.mark.parametrize("k", range(2, 21))
def test_referee_is_as_precise_as_the_largest_trial_needs(k):
    # The fixed-precision references against 200-digit roots: within the
    # slack of a trial at MAX_DIGITS, the tightest any trial allows.
    references = verify._mpmath_references(k)
    with mpmath.workdps(200):
        phi = mpmath.findroot(lambda z: z**k - sum(z**i for i in range(k)), (1, 2))
        x = 1 / phi
        limit = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
            k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
        )
    slack = Fraction(1, 10 ** (2 * verify.MAX_DIGITS + 5))
    for name, value in (("phi", phi), ("inverse_phi", x), ("limit_value", limit)):
        mantissa, exponent = value.man_exp
        assert abs(references[name] - mantissa * Fraction(2) ** exponent) < slack, name


def _anderson_references(k):
    """The referee as it was: findroot's Anderson solver on the whole bracket."""
    with mpmath.workdps(2 * verify.MAX_DIGITS + 10):
        phi = mpmath.findroot(
            lambda z: mpmath.polyval([1] + [-1] * k, z), (1, 2), solver="anderson"
        )
        x = mpmath.findroot(
            lambda z: mpmath.polyval([1] * k + [-1], z), (0, 1), solver="anderson"
        )
        limit = (k * x**k - k * x ** (k - 1) - x**k + 1) / (
            k * x**k - k * x ** (k - 1) + x ** (2 * k) - 3 * x**k + 2
        )
    return {"phi": phi, "inverse_phi": x, "limit_value": limit}


@pytest.mark.parametrize("k", range(2, 21))
def test_the_seeded_referee_agrees_with_anderson_on_the_bracket(k):
    references = verify._mpmath_references(k)
    slack = Fraction(1, 10 ** (2 * verify.MAX_DIGITS + 5))
    for name, value in _anderson_references(k).items():
        mantissa, exponent = value.man_exp
        assert abs(references[name] - mantissa * Fraction(2) ** exponent) < slack, name


def _no_root(*args, **kwargs):
    raise ValueError("Could not find root within given tolerance.\nTry another starting point.")


@pytest.mark.parametrize("findroot", [_no_root, lambda *args, **kwargs: 2.5],
                         ids=["no-convergence", "outside-the-bracket"])
def test_a_failed_referee_is_a_one_line_internal_failure(monkeypatch, capsys, findroot):
    monkeypatch.setattr(mpmath, "findroot", findroot)
    with pytest.raises(RuntimeError, match="mpmath referee"):
        verify._mpmath_references(3)
    assert cli.main(["verify", "full"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mpmath referee") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, args, shift, detail",
    [
        ("phi", (2, 17), Fraction(1, 10**16), "phi(2) != (1+sqrt5)/2 at 15 decimals"),
        ("limit_value", (2, 32), Fraction(1, 10**31), "limit(2) != (5-sqrt5)/10 at 30 decimals"),
    ],
    ids=["phi", "limit"],
)
def test_golden_ratio_case_requires_the_closed_form_inside(monkeypatch, name, args, shift, detail):
    # Shifted by a tenth of the tolerance of a distance test, the
    # enclosure stays within 10^-15 (10^-30) of the closed form but no
    # longer contains it.
    compute = getattr(numerics, name)

    def shifted(*call):
        enc = compute(*call)
        return Interval(enc.lo + shift, enc.hi + shift) if call == args else enc

    monkeypatch.setattr(numerics, name, shifted)
    result = verify.check_golden_ratio_case()
    assert not result.passed
    assert result.detail == detail


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@given(rationals, rationals, rationals, st.fractions(min_value=0, max_value=1, max_denominator=100))
@example(Fraction(0), Fraction(2), Fraction(1), Fraction(1, 2))
def test_distance_encloses_every_point_and_attains_both_ends(a, b, y, t):
    x = Interval(min(a, b), max(a, b))
    gap = verify._distance(x, y)
    assert abs(x.lo + t * x.width - y) in gap
    nearest = min(max(y, x.lo), x.hi)  # the point of x closest to y
    assert gap.lo == abs(nearest - y)
    assert gap.hi in (abs(x.lo - y), abs(x.hi - y))


@pytest.mark.parametrize("shift", [1e-6, 1e-6j])
def test_root_structure_catches_a_shifted_root_set(monkeypatch, shift):
    # Every disk moved by the same amount: still pairwise disjoint, but the
    # dominant disk no longer meets the certified phi_k enclosure.
    all_roots = numerics.all_roots

    def shifted(k):
        roots = all_roots(k)
        return numerics.ComplexRootSet(
            k=k, roots=tuple(z + shift for z in roots.roots), error_radii=roots.error_radii
        )

    monkeypatch.setattr(numerics, "all_roots", shifted)
    result = verify.check_root_structure()
    assert not result.passed
    assert result.detail == "k=2: dominant disk misses phi_2"


def test_root_structure_catches_overlapping_disks(monkeypatch):
    all_roots = numerics.all_roots

    def widened(k):
        roots = all_roots(k)
        return numerics.ComplexRootSet(k=k, roots=roots.roots, error_radii=(2.0,) * k)

    monkeypatch.setattr(numerics, "all_roots", widened)
    result = verify.check_root_structure()
    assert not result.passed
    assert result.detail == "k=2: root disks overlap"


def test_annulus_test_is_exact():
    # 3^(-1/2) = 0.57735...: the disk about 0.59 of radius 0.01 clears it,
    # the one about 0.58 does not; the unit circle bounds from outside.
    inside = verify._inside_annulus
    assert inside(Fraction(59, 100), Fraction(0), Fraction(1, 100), 2)
    assert not inside(Fraction(58, 100), Fraction(0), Fraction(1, 100), 2)
    assert not inside(Fraction(98, 100), Fraction(0), Fraction(2, 100), 2)
    assert inside(Fraction(0), Fraction(97, 100), Fraction(2, 100), 2)
    assert not inside(Fraction(0), Fraction(1, 100), Fraction(2, 100), 2)


def _annulus_reference(x, y, r, k):
    # The reference: the same test in Fraction arithmetic, with s = |c|^2
    # and (|c| - r)^(2k) = a + b sqrt(s) for rationals a, b.
    s = x * x + y * y
    if not (r * r < s and r < 1 and s < (1 - r) ** 2):
        return False
    a, b = Fraction(1), Fraction(0)
    for _ in range(2 * k):  # (a + b sqrt(s)) (sqrt(s) - r)
        a, b = b * s - a * r, a - b * r
    a, b = 9 * a - 1, 9 * b
    return (a > 0 or b * b * s > a * a) and (b > 0 or a * a > b * b * s)


# Dyadic rationals m / 2^e in (-1, 1), each with its own denominator.
unit_dyadics = st.integers(0, 60).flatmap(
    lambda e: st.integers(1 - 2**e, 2**e - 1).map(lambda m: Fraction(m, 2**e))
)


@given(unit_dyadics, unit_dyadics, unit_dyadics.map(lambda r: abs(r) / 16), st.integers(2, 10))
@example(Fraction(59, 100), Fraction(0), Fraction(1, 100), 2)  # not dyadic
@example(Fraction(59, 64), Fraction(0), Fraction(1, 64), 10)  # inside: 0.906 > 3^(-1/10) = 0.896
@example(Fraction(29, 32), Fraction(0), Fraction(1, 64), 10)  # 0.891: crosses the inner circle
@example(Fraction(3, 4), Fraction(1, 2), Fraction(1, 32), 7)  # inside, off the real axis
def test_integer_annulus_test_agrees_with_fractions(x, y, r, k):
    assert verify._inside_annulus(x, y, r, k) == _annulus_reference(x, y, r, k)


def test_root_structure_counts_touching_disks_as_overlapping(monkeypatch):
    # |c1 - c2| = |3/8 + i/2| = 5/8 = r1 + r2 exactly: the disks share a point.
    def touching(k):
        roots = (1.625 + 0j, 1.25 - 0.5j)
        return numerics.ComplexRootSet(k=k, roots=roots, error_radii=(0.25, 0.375))

    monkeypatch.setattr(numerics, "all_roots", touching)
    result = verify.check_root_structure()
    assert not result.passed
    assert result.detail == "k=2: root disks overlap"
