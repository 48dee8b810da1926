from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from heckediv import curve, forms as F, operators, pairing
from heckediv.errors import NonUnitLeading, PrecisionExhausted, UnsupportedParameter, \
    UnsupportedWeight
from heckediv.series import PuiseuxSeries as S, log_derivative_coeffs


def brute_delta(prec):
    """Independent oracle: expand q prod (1 - q^n)^24 term by term, no
    pentagonal shortcut."""
    prod = S.one(prec)
    for n in range(1, prec + 1):
        factor = S(1, 0, [1] + [0] * (n - 1) + [-1] + [0] * max(prec - n, 0))
        for _ in range(24):
            prod = (prod * factor).truncate(prec)
    return S.q_power(1, prec) * prod


def test_bernoulli_values():
    assert F.bernoulli(4) == Fraction(-1, 30)
    assert F.bernoulli(6) == Fraction(1, 42)
    assert F.bernoulli(12) == Fraction(-691, 2730)
    assert F.bernoulli(16) == Fraction(-3617, 510)


def _bernoulli_oracle(k):
    """Oracle: [B_0, ..., B_k] by the recurrence sum_{j=0}^{m} C(m+1, j)
    B_j = 0 (m >= 1) in Fractions, the route the tangent numbers replaced."""
    from math import comb
    bs = [Fraction(1)]
    for m in range(1, k + 1):
        bs.append(-sum(comb(m + 1, j) * bs[j] for j in range(m)) / (m + 1))
    return bs


def test_bernoulli_against_the_recurrence_oracle():
    for k, want in enumerate(_bernoulli_oracle(60)):
        assert F.bernoulli(k) == want, k
    with pytest.raises(UnsupportedParameter):
        F.bernoulli(-2)


def test_eisenstein_sigma_oracle():
    for k in (4, 6, 8, 12):
        e = F.eisenstein(k, 9)
        lead = -Fraction(2 * k) / F.bernoulli(k)
        for n in range(1, 8):
            assert e.coefficient(n) == lead * F.sigma(k - 1, n)
    assert F.eisenstein(4, 3).coefficient(1) == 240
    assert F.eisenstein(6, 3).coefficient(1) == -504
    assert F.eisenstein(12, 2).coefficient(1) == Fraction(65520, 691)


def test_sigma_sieve_against_trial_division():
    for k in (0, 1, 3, 11):
        brute = [0] + [sum(d ** k for d in range(1, n + 1) if n % d == 0)
                       for n in range(1, 80)]
        assert F.sigma_table(k, 80) == brute
        assert [F.sigma(k, n) for n in range(1, 80)] == brute[1:]


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14, 16])
def test_eisenstein_coefficient_types(k):
    # int wherever the value is integral: every coefficient when 2k/B_k is
    # an integer (k = 4, 6, 8, 10, 14), otherwise each Fraction is proper
    e = F.eisenstein(k, 60)
    lead = -Fraction(2 * k) / F.bernoulli(k)
    for n, c in enumerate(e.coeffs[1:], 1):
        want = lead * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        assert c == want
        assert type(c) is (int if want.denominator == 1 else Fraction)
    assert (lead.denominator == 1) == (k in (4, 6, 8, 10, 14))


def test_eisenstein_rejects_bad_weights():
    with pytest.raises(UnsupportedWeight):
        F.eisenstein(5, 4)
    with pytest.raises(UnsupportedWeight):
        F.eisenstein(2, 4)


def test_delta_against_brute_product():
    assert F.delta(16).equal_through(brute_delta(16), 14)


def test_delta_coefficients():
    d = F.delta(6)
    assert [d.coefficient(i) for i in (1, 2, 3, 4, 5)] == [1, -24, 252, -1472, 4830]


def test_j_and_shift():
    j = F.j_function(4)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760
    jp = F.j_shifted(3)
    assert jp.coefficient(0) == 24
    assert jp.coefficient(1) == 196884


def test_jn_normalization():
    assert F.jn(1, 8) == F.j_shifted(8)
    j2 = F.jn(2, 8)
    assert j2.leading_exponent() == -2 and j2.leading_coefficient() == 1
    assert j2.coefficient(-1) == 0
    assert j2.coefficient(0) == 24 * F.sigma(1, 2)
    assert F.jn(3, 8).coefficient(0) == 24 * F.sigma(1, 3)
    # coefficient of q in j_2 is 2 c_j(2) by the weight-0 formula
    assert j2.coefficient(1) == 2 * F.j_shifted(5).coefficient(2)


def test_eta_quotient_hauptmodul_level2():
    spec = F.EtaQuotientSpec.make(2, {1: 24, 2: -24})
    t = F.eta_quotient_qexp(spec, 6)
    assert [t.coefficient(i) for i in (-1, 0, 1, 2)] == [1, -24, 276, -2048]


def test_eta_quotient_single_factor_is_delta():
    # two routes: the exp recurrence against the pentagonal product squared
    spec = F.EtaQuotientSpec.make(1, {1: 24})
    assert F.eta_quotient_qexp(spec, 10) == F.delta(10)
    assert F.eta_quotient_qexp(spec, 200) == F.delta(200)


def test_eta_quotient_rescaled_delta():
    spec = F.EtaQuotientSpec.make(2, {2: 24})
    t = F.eta_quotient_qexp(spec, 4)
    assert t.coefficient(2) == 1 and t.coefficient(4) == -24 and t.coefficient(3) == 0


def test_eta_agrees_with_delta_shift_expression():
    # Delta(m tau) as the eta quotient eta(m tau)^24 against Delta rescaled:
    # the same coefficients, of the same types, on the same window
    for m in (1, 2, 3, 5):
        for prec in (1, 2, 8, 30):
            lhs = F.FormExpression.of(F.DeltaShift(m)).qexp(prec)
            rhs = F.delta(prec).rescale_exponents(m).truncate(m + prec)
            assert lhs == rhs and lhs.precision == rhs.precision
            assert list(map(type, lhs.coeffs)) == list(map(type, rhs.coeffs))


def test_ligozat_orders_level2():
    spec = F.EtaQuotientSpec.make(2, {1: 24, 2: -24})
    assert F.ligozat_order(spec, 2, 2) == -1   # infinity (c = N)
    assert F.ligozat_order(spec, 2, 1) == 1    # cusp 0
    # and the order at infinity matches the expansion directly
    assert F.eta_quotient_qexp(spec, 4).leading_exponent() == -1


def test_ligozat_order_refuses_a_level_the_quotient_does_not_live_on():
    with pytest.raises(UnsupportedParameter):
        F.ligozat_order(F.EtaQuotientSpec.make(4, {1: 8, 4: -8}), 6, 1)


def test_expression_qexp_product_consistency():
    e4d = F.FormExpression.of(F.Eisenstein(4), F.DeltaShift(1))
    direct = F.eisenstein(4, 12) * F.delta(12)
    assert e4d.qexp(10).agrees_with(direct)
    assert e4d.weight == 16 and e4d.level == 1


def test_expression_multiplicative_in_factors():
    a = F.FormExpression.of(F.Eisenstein(4))
    b = F.FormExpression.of(F.DeltaShift(2))
    ab = a * b
    assert ab.qexp(8).agrees_with(a.qexp(10) * b.qexp(10), through=7)
    assert ab.level == 2


def test_shifted_expression_constant_term():
    spec = F.EtaQuotientSpec.make(2, {1: 24, 2: -24})
    e = F.FormExpression.of((F.EtaQuotient(spec), 1), shift=-512)
    assert e.qexp(5).coefficient(0) == -536
    assert e.weight == 0


def test_jminus_expression():
    jm = F.FormExpression.of(F.JMinus(Fraction(1728)))
    q = jm.qexp(4)
    assert q.coefficient(-1) == 1 and q.coefficient(0) == -984
    assert q.coefficient(1) == 196884


def test_hauptmodul_leading_terms():
    assert F.j_shifted(4).coefficient(0) == 24
    for N, const in ((2, -24), (3, -12), (4, -8), (5, -6)):
        t = F.eta_quotient_qexp(F.hauptmodul_spec(N), 4)
        assert t.coefficient(-1) == 1 and t.coefficient(0) == const


def test_registry_names():
    qexp = lambda name: F.expression_by_name(name).qexp(5)
    assert qexp("E4") == F.eisenstein(4, 5)
    assert qexp("Delta") == F.delta(5)
    assert qexp("j") == F.j_function(5)
    assert qexp("j_shifted") == F.j_shifted(5)
    assert qexp("jminus:1728").coefficient(0) == -984
    eta = qexp("eta:2:1=24,2=-24")
    assert eta.coefficient(0) == -24
    # every name gives `prec` coefficients from its leading term
    for name in ("E4", "Delta", "j", "j_shifted", "jminus:1728", "jminus:0",
                 "eta:2:1=24,2=-24"):
        assert qexp(name).precision == 5
    with pytest.raises(ValueError):
        F.expression_by_name("nope")


def test_single_atom_expansions_multiply_nothing(monkeypatch):
    # the first factor is truncated to the window a product with the
    # constant 1 would keep (jminus:c expands one coefficient too many)
    names = ("E4", "Delta", "j", "jminus:1728", "eta:2:1=24,2=-24", "eta:1:1=1")
    for prec in (1, 5, 20):
        want = {name: S.one(prec) * F.expression_by_name(name).atoms[0][0].qexp(prec)
                for name in names}

        def refuse(*args):
            raise AssertionError("a product by the constant 1")

        with monkeypatch.context() as m:
            m.setattr(S, "__mul__", refuse)
            got = {name: F.expression_by_name(name).qexp(prec) for name in names}
        for name in names:
            assert got[name] == want[name], (name, prec)
            assert [type(c) for c in got[name].coeffs] == [type(c) for c in want[name].coeffs]


def test_a_half_integral_weight_is_a_typed_error():
    with pytest.raises(UnsupportedWeight):
        F.expression_by_name("eta:1:1=1").weight
    assert F.expression_by_name("eta:1:1=1").qexp(3).leading_exponent() == Fraction(1, 24)


def test_psl2_index():
    assert [F.psl2_index(n) for n in (1, 2, 3, 4, 5, 6, 12)] == [1, 3, 4, 6, 6, 12, 24]


def test_prime_factors_by_trial_division():
    def is_prime(p):
        return p > 1 and all(p % q for q in range(2, p))
    for n in range(1, 2001):
        ps = F.prime_factors(n)
        assert ps == sorted(ps) and all(is_prime(p) for p in ps), n
        assert prod(ps) == n, n


def test_moebius_from_prime_factors():
    # mu(n) = 0 when a square > 1 divides n, else (-1)^(number of primes):
    # the value operators reads off prime_factors; the definition is the
    # Dirichlet inverse of 1, sum_{d | n} mu(d) = [n = 1]
    def mu(n):
        ps = F.prime_factors(n)
        return (-1) ** len(ps) if len(set(ps)) == len(ps) else 0
    for n in range(1, 2001):
        assert sum(mu(d) for d in range(1, n + 1) if n % d == 0) == (n == 1), n
        assert (mu(n) == 0) == any(n % (k * k) == 0 for k in range(2, isqrt(n) + 1)), n


def test_each_atom_knows_its_order():
    atoms = [F.Eisenstein(4), F.DeltaShift(3), F.JMinus(Fraction(1728)),
             F.EtaQuotient(F.EtaQuotientSpec.make(6, {1: 2, 6: 3})),
             F.OpaqueSeries(S(2, 3, [5, 1]), 2, 1)]
    for atom in atoms:
        assert atom.order == atom.qexp(8).leading_exponent(), atom
    expr = F.FormExpression.of((atoms[0], 2), (atoms[1], -1), atoms[3])
    assert expr.order == expr.qexp(12).leading_exponent() == Fraction(-3) + Fraction(20, 24)
    # a shift lifts a positive order to the constant term
    haupt = F.EtaQuotient(F.hauptmodul_spec(2))
    assert F.FormExpression.of(haupt, shift=5).order == -1
    assert F.FormExpression.of((haupt, -1), shift=5).order == 0
    with pytest.raises(NonUnitLeading):
        F.FormExpression.of(F.OpaqueSeries(S(1, 4, []), 0, 1)).order


@pytest.mark.parametrize("m", (1, 2, 3, 5))
def test_delta_shift_is_the_eta_quotient(m):
    spec = F.EtaQuotientSpec.make(m, {m: 24})
    assert F.FormExpression.of(F.DeltaShift(m)) == F.FormExpression.of(F.EtaQuotient(spec))


@pytest.mark.parametrize("m", (0, -1))
def test_delta_shift_refuses_a_non_positive_argument(m):
    # Delta(0 tau) and Delta(-tau) are not forms on any X_0(N)
    with pytest.raises(UnsupportedParameter):
        F.DeltaShift(m)


# ---------------------------------------------------------------------------
# log-derivatives read from the atoms
# ---------------------------------------------------------------------------

def _eta(level, exps):
    return F.EtaQuotient(F.EtaQuotientSpec.make(level, exps))


def _atom_id(atom):
    # Delta(m tau) = eta(m tau)^24 keeps the name of its constructor
    spec = getattr(atom, "spec", None)
    if spec is not None and spec.exponents == ((spec.level, 24),):
        return f"DeltaShift(m={spec.level})"
    return repr(atom)


# every atom kind with a closed-form log-derivative
CLOSED_FORM_ATOMS = (
    [F.Eisenstein(k) for k in (4, 6, 8, 10, 12, 14)]
    + [F.DeltaShift(m) for m in (1, 2, 3, 5)]
    + [F.JMinus(Fraction(0)), F.JMinus(Fraction(1728))]
    + [_eta(3, {1: 6, 3: 6}), _eta(3, {1: 12, 3: -12}), _eta(2, {1: 24, 2: -24}),
       _eta(2, {1: 8, 2: 8}), _eta(4, {2: 12}), _eta(4, {1: 8, 4: -8}),
       _eta(5, {1: 4, 5: 4}), _eta(6, {1: 2, 2: 2, 3: 2, 6: 2})])


def _expansion_log_derivative(expr, n):
    """Theta(f)/f from the full product expansion, by the series kernel
    (theta times the reciprocal), never from the atoms' closed forms."""
    s = expr.qexp(n)
    ld = s.theta() * s.reciprocal()
    return [ld.coefficient(i) for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(factors=st.lists(st.tuples(st.sampled_from(CLOSED_FORM_ATOMS),
                                  st.integers(-2, 3)), min_size=1, max_size=3),
       n=st.integers(1, 40))
def test_log_derivative_from_atoms_matches_the_expansion(factors, n):
    expr = F.FormExpression.of(*factors)
    l = expr.log_derivative(n)
    assert l == _expansion_log_derivative(expr, n)
    s = expr.qexp(n)
    assert l == log_derivative_coeffs(s.coeffs, s.order, n)


@pytest.mark.parametrize("atom", CLOSED_FORM_ATOMS, ids=_atom_id)
def test_each_atom_log_derivative_matches_the_expansion(atom):
    assert atom.log_derivative(30) == _expansion_log_derivative(F.FormExpression.of(atom), 30)


def test_atoms_without_a_closed_form_have_no_log_derivative():
    opaque = F.OpaqueSeries(S(1, 0, [2, 1, 3]), 0, 1)
    for atom in (opaque, F.JMinus(Fraction(744)), _eta(1, {1: 12})):
        assert atom.log_derivative(5) is None
        assert F.FormExpression.of(F.Eisenstein(4), atom).log_derivative(5) is None
    # eta(tau)^12 eta(tau)^12 is Delta, but each factor lives on the grid (1/2)Z
    assert F.FormExpression.of(_eta(1, {1: 12}), _eta(1, {1: 12})).log_derivative(5) is None
    shifted = F.FormExpression.of(_eta(2, {1: 24, 2: -24}), shift=-512)
    assert shifted.log_derivative(5) is None
    assert F.FormExpression.of().log_derivative(3) == [0, 0, 0]


# ---------------------------------------------------------------------------
# the grow-only prefix store behind sigma_table and Theta(E_k)/E_k
# ---------------------------------------------------------------------------

def _trial_sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _brute_eisenstein(k, n):
    c = -Fraction(2 * k) / F.bernoulli(k)
    return [1] + [c * _trial_sigma(k - 1, i) for i in range(1, n)]


def _brute_eta_unit(exponents, n):
    """prod (1 - q^(m j))^r to n terms, one factor (1 - q^j) at a time."""
    u = [1] + [0] * (n - 1)
    for m, r in exponents:
        for j in range(m, n, m):
            for _ in range(abs(r)):
                if r > 0:
                    for i in range(n - 1, j - 1, -1):
                        u[i] -= u[i - j]
                else:
                    for i in range(j, n):
                        u[i] += u[i - j]
    return u


def _one_pass_log_derivative(atom, n):
    """Theta(f)/f to n coefficients by one uncached pass of the log
    recurrence over an expansion built without the store: E_k from trial
    division, eta quotients (Delta(m tau) among them) factor by factor, and
    j = E4^3/Delta, j - 1728 = E6^2/Delta by the series kernel."""
    if isinstance(atom, F.Eisenstein):
        return log_derivative_coeffs(_brute_eisenstein(atom.k, n), 0, n)
    if isinstance(atom, F.EtaQuotient):
        exps = atom.spec.exponents
        order = sum(m * r for m, r in exps) // 24
        return log_derivative_coeffs(_brute_eta_unit(exps, n), order, n)
    k, power = (4, 3) if atom.c == 0 else (6, 2)
    s = S(1, 0, _brute_eisenstein(k, n)) ** power / S(1, 1, _brute_eta_unit(((1, 24),), n))
    return log_derivative_coeffs(s.coeffs, s.order, n)


STORE_ATOMS = (
    [F.Eisenstein(k) for k in (4, 6, 8, 10, 12, 14, 16)]
    + [F.DeltaShift(m) for m in (1, 2, 3)]
    + [_eta(3, {1: 6, 3: 6}), _eta(2, {1: 24, 2: -24}), _eta(6, {1: 2, 2: 2, 3: 2, 6: 2})]
    + [F.JMinus(Fraction(0)), F.JMinus(Fraction(1728))])

_ONE_PASS = {}


def _assert_one_pass(atom, n):
    if (atom, n) not in _ONE_PASS:
        _ONE_PASS[atom, n] = _one_pass_log_derivative(atom, n)
    want = _ONE_PASS[atom, n]
    got = atom.log_derivative(n)
    assert got == want, (atom, n)
    assert [type(x) for x in got] == [type(x) for x in want], (atom, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(STORE_ATOMS), st.integers(1, 60)),
                min_size=1, max_size=8))
def test_stored_log_derivatives_equal_one_pass(requests):
    # lengths rise, fall and repeat in any order, on atoms sharing the store
    F._prefixes.cache_clear()
    for atom, n in requests:
        _assert_one_pass(atom, n)


@pytest.mark.parametrize("atom", STORE_ATOMS, ids=_atom_id)
def test_rising_falling_and_repeated_lengths(atom):
    F._prefixes.cache_clear()
    for n in (5, 5, 31, 12, 1, 47, 47, 2):
        _assert_one_pass(atom, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 1, 3, 5, 11, 15)), st.lists(st.integers(0, 90), min_size=1, max_size=6))
def test_stored_sigma_tables_equal_trial_division(k, lengths):
    F._prefixes.cache_clear()
    for n in lengths:
        assert F.sigma_table(k, n) == [_trial_sigma(k, i) for i in range(n)]


def test_the_store_extends_only_the_missing_rows(monkeypatch):
    F._prefixes.cache_clear()
    F.eisenstein.cache_clear()
    resumed = []
    real = F.log_derivative_coeffs

    def spy(c, h, n, prefix=()):
        resumed.append((len(prefix), n, len(c)))
        return real(c, h, n, prefix)

    monkeypatch.setattr(F, "log_derivative_coeffs", spy)
    e6 = F.Eisenstein(6)
    for n in (10, 4, 10, 25, 25, 3):
        assert len(e6.log_derivative(n)) == n
    # a cold call computes exactly the n rows asked for, a longer one only
    # the missing rows, a shorter or equal one nothing
    assert resumed == [(0, 10, 10), (10, 25, 25)]
    assert len(F._prefixes()[e6]) == 25
    assert len(F._prefixes()[("sigma", 5)]) == 25
    # the extension reads the stored sigma_5, not a cached expansion of E6
    assert F.eisenstein.cache_info().currsize == 0


def test_a_returned_list_is_the_callers_own():
    F._prefixes.cache_clear()
    e4 = F.Eisenstein(4)
    got = e4.log_derivative(12)
    want = list(got)
    got[3] = 999
    got.append(7)
    assert e4.log_derivative(12) == want
    s1 = F.sigma_table(1, 20)
    s1[5] = -1
    del s1[10:]
    assert F.sigma_table(1, 20) == [0] + [_trial_sigma(1, i) for i in range(1, 20)]
    assert all(type(v) is tuple for v in F._prefixes().values())


def test_clearing_the_store_drops_every_prefix():
    F.Eisenstein(8).log_derivative(9)
    assert F._prefixes()
    F._prefixes.cache_clear()
    assert F._prefixes() == {}


def test_threads_sharing_the_store_never_shrink_a_prefix():
    # more threads than cores, switching often, each asking for rising
    # lengths interleaved with the others' so that extensions race: every
    # result equals the one-pass reference, no thread sees a stored prefix
    # shrink, and the prefixes end as long as the longest request (a
    # shorter prefix stored over a longer one would break both)
    import sys
    import threading

    F._prefixes.cache_clear()
    e4 = F.Eisenstein(4)
    longest = 300
    want = _one_pass_log_derivative(e4, longest)
    sigma = [_trial_sigma(3, i) for i in range(longest)]
    plans = [list(range(i + 1, longest + 1, 6)) for i in range(6)]
    errors = []

    def work(plan):
        seen = {e4: 0, ("sigma", 3): 0}
        try:
            for n in plan:
                assert e4.log_derivative(n) == want[:n]
                assert F.sigma_table(3, n) == sigma[:n]
                for key in seen:
                    now = len(F._prefixes().get(key, ()))
                    assert now >= seen[key], (key, seen[key], now)
                    seen[key] = now
        except AssertionError as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(plan,)) for plan in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(F._prefixes()[e4]) == len(F._prefixes()[("sigma", 3)]) == longest


# ---------------------------------------------------------------------------
# the expansion store: Delta, eta quotients, j and j_n
# ---------------------------------------------------------------------------

def _clear_form_caches():
    for obj in vars(F).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _old_delta(prec):
    """Delta by the pentagonal product, q euler_product^24."""
    return S.q_power(1, prec) * F.euler_product(prec) ** 24


def _old_j(prec):
    """j as E4^3 times the reciprocal of that Delta."""
    p = prec + 2
    return (F.eisenstein(4, p) ** 3 * _old_delta(p).reciprocal()).truncate(prec - 1)


def _old_eta(exponents, prec):
    """prod eta(m tau)^r from the factor-by-factor unit, spread on grid D."""
    lead = Fraction(sum(m * r for m, r in exponents), 24)
    D = lead.denominator
    coeffs = [0] * prec
    coeffs[::D] = _brute_eta_unit(exponents, -(-prec // D))
    return S(D, lead.numerator, coeffs)


def _old_expansion(request):
    kind, *args = request
    if kind == "delta":
        return _old_delta(*args)
    if kind == "j":
        return _old_j(*args)
    if kind == "jn":
        n, prec = args
        base = _old_j(n * (prec + n) + 1) - 720
        return operators.hecke_additive_formula(base, 0, n).truncate(prec - n)
    if kind == "eta":
        return _old_eta(*args)
    N, prec = args
    return _old_j(prec) - 720 if N == 1 else _old_eta(F.hauptmodul_spec(N).exponents, prec)


def _expansion(request):
    kind, *args = request
    if kind == "eta":
        exponents, prec = args
        return F.eta_quotient_qexp(F.EtaQuotientSpec(6, exponents), prec)
    if kind == "haupt":
        N, prec = args
        return F.j_shifted(prec) if N == 1 else F.eta_quotient_qexp(F.hauptmodul_spec(N), prec)
    return {"delta": F.delta, "j": F.j_function, "jn": F.jn}[kind](*args)


STORE_ETA = (((1, 24),), ((1, 12),), ((1, 1),), ((1, 8), (3, 8)), ((1, -12), (2, 12)),
             ((1, 2), (2, 2), (3, 2), (6, 2)), ((2, 12),), ((1, 5), (3, -1)))

REQUESTS = st.one_of(
    st.tuples(st.just("delta"), st.integers(1, 150)),
    st.tuples(st.just("j"), st.integers(1, 150)),
    st.integers(1, 5).flatmap(lambda n: st.tuples(st.just("jn"), st.just(n), st.integers(n, 30))),
    st.tuples(st.just("eta"), st.sampled_from(STORE_ETA), st.integers(1, 200)),
    st.tuples(st.just("haupt"), st.integers(1, 5), st.integers(1, 60)))

_OLD = {}


@settings(max_examples=40, deadline=None)
@given(st.lists(REQUESTS, min_size=1, max_size=8))
def test_stored_expansions_equal_the_old_formulas(requests):
    # precisions rise, fall and repeat in any order, on expansions sharing
    # the stored units of Delta and j
    _clear_form_caches()
    for request in requests:
        got = _expansion(request)
        if request not in _OLD:
            _OLD[request] = _old_expansion(request)
        want = _OLD[request]
        assert (got.D, got.order, got.coeffs) == (want.D, want.order, want.coeffs), request
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs], request


def test_delta_j_and_jn_build_no_product_and_invert_no_series(monkeypatch):
    want = [_old_delta(60), _old_j(60), _old_expansion(("jn", 3, 12))]

    def refuse(*_):
        raise AssertionError("Delta, j and j_n read the stored units")

    _clear_form_caches()
    monkeypatch.setattr(F, "euler_product", refuse)
    monkeypatch.setattr(S, "reciprocal", refuse)
    assert [F.delta(60), F.j_function(60), F.jn(3, 12)] == want


def _jn_oracle(n, prec):
    """Oracle: j_n as (j - 720)|T(n) by the additive Hecke formula, which
    reads n(prec + n) + 1 coefficients of j."""
    return operators.hecke_additive_formula(
        F.j_shifted(n * (prec + n) + 1), 0, n).truncate(prec - n)


def _refuse(*_):
    raise AssertionError("j_n took the other route")


@pytest.mark.parametrize("n,prec", [(n, prec) for n in range(1, 13)
                                    for prec in sorted({n + 1, n + 2, 12, 40, 60})])
def test_jn_takes_the_faber_route_cold_and_the_hecke_formula_warm(monkeypatch, n, prec):
    # cold: the Faber recursion reads only max(prec, n + 1) coefficients of j
    _clear_form_caches()
    with monkeypatch.context() as patch:
        patch.setattr(operators, "hecke_additive_formula", _refuse)
        cold = F.jn(n, prec)
    assert len(F._prefixes()[("j",)]) == max(prec, n + 1)
    # warm: with j stored as far as the formula reads, j_n is the formula
    F.j_function(n * (prec + n) + 1)
    F.jn.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(F, "_faber_windows", _refuse)
        warm = F.jn(n, prec)
    want = _jn_oracle(n, prec)
    assert len(want.coeffs) == prec
    for got in (cold, warm):
        assert (got.D, got.order, got.coeffs) == (want.D, want.order, want.coeffs)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@lru_cache(maxsize=None)
def _jn_j_polynomial(n):
    """The j-line reading of j_n = F_n(j) + 24 sigma_1(n): the j-polynomial
    of the window of F_n(j) through q^1 from the q-series ring of the
    Faber loop."""
    window = S(1, -n, F._faber_windows(1, n, n + 2))
    return curve.weight0_to_j_polynomial(window + 24 * F.sigma(1, n))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30),
       x=st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
def test_the_faber_loop_on_scalars_is_the_j_polynomial_of_its_windows(n, x):
    # one recursion in two rings: j_n(z) at j(z) = x from the exact scalars
    # equals the j-polynomial of the q-series windows, evaluated at x
    P = _jn_j_polynomial(n)
    assert F.jn_at(n, x) == sum(a * x ** e for e, a in P.items())


def test_jn_at_needs_a_positive_index():
    for n in (0, -1):
        with pytest.raises(UnsupportedParameter):
            F.jn_at(n, 0)


def test_jn_refuses_an_empty_precision():
    for prec in (0, -1, -30):
        with pytest.raises(PrecisionExhausted):
            F.jn(3, prec)


def test_delta_and_j_refuse_an_empty_precision():
    for fn in (F.delta, F.j_function):
        for prec in (0, -3):
            with pytest.raises(PrecisionExhausted):
                fn(prec)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, 3, 6)), st.integers(-12, 12)),
                min_size=1, max_size=4), st.integers(1, 40))
def test_a_product_of_eta_atoms_is_the_quotient_of_the_summed_exponents(factors, prec):
    # each atom lives on the grid of its own order, the product on that of
    # the summed order, which may be coarser or finer
    total = {}
    for m, r in factors:
        total[m] = total.get(m, 0) + r
    expr = F.FormExpression.of(*[_eta(6, {m: r}) for m, r in factors])
    got = expr.qexp(prec)
    want = F.eta_quotient_qexp(F.EtaQuotientSpec.make(6, total), prec)
    assert (got.D, got.order, got.coeffs) == (want.D, want.order, want.coeffs)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_eta12_squared_is_delta_in_every_route():
    eta12 = _eta(1, {1: 12})
    halves = F.FormExpression.of(eta12, eta12)
    delta = F.FormExpression.of(F.DeltaShift(1))
    for prec in (1, 2, 12, 40):
        assert halves.qexp(prec) == F.delta(prec)
    assert pairing.r_at_s1(1, 11, halves) == 288 == 24 * F.sigma(1, 11)
    for n in (2, 3, 5):
        got = operators.hecke_multiplicative(halves, n, 1, 12).atoms[0][0].series
        assert got == operators.hecke_multiplicative(delta, n, 1, 12).atoms[0][0].series


def test_a_shift_that_cancels_the_constant_term_reads_the_order_from_the_expansion():
    e4, e6, j = F.Eisenstein(4), F.Eisenstein(6), F.JMinus(Fraction(0))
    # E4^3/E6^2 - 1 = 1728 Delta/E6^2 and (j - 1728)/j - 1 = -1728/j
    for f in (F.FormExpression.of((e4, 3), (e6, -2), shift=-1),
              F.FormExpression.of(F.JMinus(Fraction(1728)), (j, -1), shift=-1)):
        assert f.order == 1 == f.qexp(6).leading_exponent()
    assert F.FormExpression.of((e4, 3), (e6, -2), shift=5).order == 0
    # identically 0: the expansion vanishes beyond the number of poles
    for zero in (F.FormExpression.of(e4, (e4, -1), shift=-1),
                 F.FormExpression.of(j, (e4, -3), F.DeltaShift(1), shift=-1),
                 F.FormExpression.of(_eta(2, {1: 12, 2: -12}), (_eta(2, {1: 12, 2: -12}), -1),
                                     shift=-1)):
        with pytest.raises(NonUnitLeading):
            zero.order
    # an opaque window the shift cancels entirely gives no order either
    opaque = F.OpaqueSeries(S(1, 0, [1, 0, 0]), 0, 1)
    with pytest.raises(PrecisionExhausted):
        F.FormExpression.of(opaque, shift=-1).order
    assert F.FormExpression.of(F.OpaqueSeries(S(1, 0, [1, 0, 3]), 0, 1), shift=-1).order == 2
