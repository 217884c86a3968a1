"""Every dynamics fast path against its slow oracle in ``skew_oracle``, and
the unvalidated results of ``spaces`` against the validating constructor.

Bases have mixed cycle types, fibers two weight classes (or one atom),
times run past the base orbit length so the periodic branch of
``cocycle_product`` runs, eps sits on and around the threshold
1 - min w, and sweep bounds run from 1 to three times the order."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import skew_oracle as oracle
from joinlab import (
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    MeasurableSet,
    SkewProduct,
    as_automorphism,
    cocycle_product,
    compose,
    halmos_distance,
    mixing_deviation_sweep_detail,
    product_space,
    relative_mixing_fraction,
    relative_product,
    relative_weak_mixing_average,
    rigidity_statistic,
)
from joinlab.cli import main
from joinlab.config import load_config
from joinlab.spaces import halmos_numerator
from joinlab.skew import (
    _random_preserving_permutation,
    _weight_classes,
    fiber_square_ergodic,
    is_ergodic,
    sample_random_extension,
    skew_orbit_count,
)
from joinlab.spaces import orbit_count

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_class_space(draw) -> FiniteSpace:
    """n1 atoms of weight 1/(n1 + 2 n2) and n2 of twice that, interleaved."""
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(0, 3))
    heavy = set(draw(st.permutations(range(n1 + n2)))[:n2])
    unit = Fraction(1, n1 + 2 * n2)
    return FiniteSpace(tuple(2 * unit if i in heavy else unit for i in range(n1 + n2)))


def weighted_space(draw) -> FiniteSpace:
    """1 to 7 atoms of weights p / (sum of the p), each p drawn from 1..3."""
    parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=7))
    return FiniteSpace(tuple(Fraction(p, sum(parts)) for p in parts))


def preserving_perm(draw, space: FiniteSpace) -> Automorphism:
    """A weight-preserving permutation: a drawn shuffle within each class."""
    perm = [0] * space.atom_count
    classes: dict[Fraction, list[int]] = {}
    for i, w in enumerate(space.weights):
        classes.setdefault(w, []).append(i)
    for atoms in classes.values():
        for src, dst in zip(atoms, draw(st.permutations(atoms))):
            perm[src] = dst
    return Automorphism(space, tuple(perm))


def subset(draw, space: FiniteSpace) -> MeasurableSet:
    return MeasurableSet(space, frozenset(draw(st.sets(st.sampled_from(range(space.atom_count))))))


@st.composite
def skews(draw) -> SkewProduct:
    base = two_class_space(draw)
    fiber = FiniteSpace.uniform(1) if draw(st.booleans()) and draw(st.booleans()) \
        else two_class_space(draw)
    maps = tuple(preserving_perm(draw, fiber) for _ in base.atoms())
    return SkewProduct(base, fiber, preserving_perm(draw, base), maps)


@PROPERTY
@given(skews(), st.data())
def test_cocycle_product_matches_step_by_step_composition(r, data):
    x = data.draw(st.integers(0, r.base.atom_count - 1))
    length = oracle.orbit_length(r.base_map, x)
    for p in {0, length - 1, length, data.draw(st.integers(0, 5 * length + 3))}:
        fast = cocycle_product(r, x, p)
        assert fast == oracle.cocycle_product(r, x, p)
        assert type(fast.perm) is tuple


@PROPERTY
@given(skews(), st.data())
def test_cocycle_product_at_a_huge_time_matches_the_reduced_time(r, data):
    x = data.draw(st.integers(0, r.base.atom_count - 1))
    p = data.draw(st.integers(10**6, 10**18))
    period = oracle.cocycle_period(r, x)
    assert cocycle_product(r, x, p) == oracle.cocycle_product(r, x, p % period)


@PROPERTY
@given(skews(), st.data())
def test_rigidity_statistic_matches_the_oracle(r, data):
    a = subset(data.draw, r.base)
    n_param = data.draw(st.integers(1, 9))
    p = data.draw(st.integers(0, 3 * r.base.atom_count + 2))
    assert rigidity_statistic(r, a, n_param, [p]) == [oracle.rigidity_statistic(r, a, n_param, p)]


def assert_walk_matches(r, a, n_param, times):
    walk = rigidity_statistic(r, a, n_param, times)
    assert walk == [rigidity_statistic(r, a, n_param, [p])[0] for p in times]


@PROPERTY
@given(skews(), st.data())
def test_rigidity_walk_matches_each_time_on_its_own(r, data):
    a = subset(data.draw, r.base)
    n_param = data.draw(st.integers(1, 9))
    # gaps past the base orbit length take the periodic branch, and one
    # huge gap checks that the walk never steps through it
    gaps = data.draw(st.lists(st.integers(1, 3 * r.base.atom_count + 2), max_size=6))
    times = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    times.append((times[-1] if times else 0) + data.draw(st.integers(10**6, 10**12)))
    assert_walk_matches(r, a, n_param, times)
    # the walk needs no order: a power of G_L it does not hold is rebuilt
    assert_walk_matches(r, a, n_param, data.draw(st.permutations(times)))
    short = [p for p in times if p < 10**6]
    assert rigidity_statistic(r, a, n_param, short) == [
        oracle.rigidity_statistic(r, a, n_param, p) for p in short
    ]


@PROPERTY
@given(skews(), st.data())
def test_rigidity_walk_with_a_repeated_gap_matches_the_oracle(r, data):
    # equal gaps reuse each base atom's step C(y, gap), past the base orbit
    a = subset(data.draw, r.base)
    n_param = data.draw(st.integers(1, 9))
    gap = data.draw(st.integers(1, 3 * r.base.atom_count + 2))
    times = [gap * m for m in range(1, 6)]
    assert rigidity_statistic(r, a, n_param, times) == [
        oracle.rigidity_statistic(r, a, n_param, p) for p in times
    ]


@PROPERTY
@given(st.data())
def test_halmos_numerator_to_the_identity_is_four_times_the_moved_weight(data):
    # a weight-preserving C maps the atoms it moves onto themselves, so
    # rho(C, Id) D 2^n = 4 sum over moved j of num_j 2^(n-1-j)
    space = FiniteSpace.uniform(1) if data.draw(st.booleans()) \
        else two_class_space(data.draw)
    c, ident = preserving_perm(data.draw, space), Automorphism.identity(space)
    num, n = space.numerators, space.atom_count
    moved = 4 * sum(num[j] << (n - 1 - j) for j in range(n) if c.perm[j] != j)
    assert halmos_numerator(num, c.perm, ident.perm) == moved
    assert oracle.halmos_distance(c, ident) * (space.denominator << n) == moved


def test_rigidity_walk_on_the_demo_config():
    cfg, _ = load_config(str(CONFIGS / "skew_demo.json"))
    a = cfg.lookup("sets", "low")
    for name in ("product", "alternating"):
        r = cfg.lookup("cocycles", name)
        for n_param in (1, 2, 8):
            assert_walk_matches(r, a, n_param, range(1, 65))
            assert_walk_matches(r, a, n_param, cfg.lookup("sequences", "times").times)


def seeded_skew(seed, lengths, fiber):
    """A skew product over a base of cycles of the given lengths, atoms
    placed on them in a seeded order, with a seeded weight-preserving fiber
    map per base atom; returns it with the base cycles, each in walk order,
    and the generator for drawing sets."""
    rng = random.Random(seed)
    order = list(range(sum(lengths)))
    rng.shuffle(order)
    perm, cycles = [0] * len(order), []
    for length in lengths:
        cycle, order = order[:length], order[length:]
        for k, x in enumerate(cycle):
            perm[x] = cycle[(k + 1) % length]
        cycles.append(cycle)
    base = FiniteSpace.uniform(len(perm))
    maps = tuple(oracle.random_preserving_permutation(rng, fiber) for _ in perm)
    return SkewProduct(base, fiber, Automorphism(base, tuple(perm)), maps), cycles, rng


def assert_walk_matches_the_oracle(r, a, n_param, times):
    """Times past 10^6 are checked at the time reduced mod a period of
    every start: the lcm of L ord C(x, L) over A."""
    period = math.lcm(*(oracle.cocycle_period(r, x) for x in a.atoms))
    want = [oracle.rigidity_statistic(r, a, n_param, p % period if p > 10**6 else p)
            for p in times]
    assert rigidity_statistic(r, a, n_param, times) == want


def test_rigidity_walk_on_a_benchmark_shaped_cycle():
    # one 64-cycle over an 8-atom fiber with half the base in A: the walk
    # builds G_0..G_64 once, and entries past it are read as G_j o G_L^q
    r, _, rng = seeded_skew(2022, [64], FiniteSpace.uniform(8))
    a = MeasurableSet(r.base, frozenset(rng.sample(range(64), 32)))
    times = [*range(1, 65), 10**12 + 1]
    walk = rigidity_statistic(r, a, 4, times)
    assert any(walk[:-1]) and not all(walk[:-1])
    assert_walk_matches_the_oracle(r, a, 4, times)


@pytest.mark.parametrize("n_param", [2, 8])
def test_rigidity_walk_on_a_mixed_base(n_param):
    # a 40-cycle, three 2-cycles and four fixed points over a two-class
    # fiber.  Short times (up to 5) span only some of the gaps 2, 1, 7, 15
    # and 15 between the spread starts of the 40-cycle; longer ones wrap
    # around it, and on the short orbits some G_L^q comes back to the
    # identity.  The empty set meets no orbit, and the fixed points alone
    # meet only orbits of length 1.  [0, 0, 2, 2, 40, 40] repeats times and
    # starts at 0, as rigidity_statistic allows
    fiber = FiniteSpace((Fraction(1, 8),) * 4 + (Fraction(1, 4),) * 2)
    r, cycles, _ = seeded_skew(7, [40, 2, 2, 2, 1, 1, 1, 1], fiber)
    forty = cycles[0]
    one = {forty[11]}
    spread = {forty[i] for i in (0, 2, 3, 10, 25)} | {cycles[1][0], cycles[4][0]}
    full = set(r.base.atoms())
    fixed = {cycle[0] for cycle in cycles[4:]}
    for atoms in (set(), fixed, one, spread, full):
        a = MeasurableSet(r.base, frozenset(atoms))
        for times in ([0, 1, 2, 3, 5], [0, 0, 2, 2, 40, 40],
                      [1, 2, 7, 15, 39, 41, 80, 81, 10**12 + 1]):
            assert_walk_matches_the_oracle(r, a, n_param, times)


@pytest.mark.parametrize(
    "light, rho, n_param, counted",
    [
        # swapping the two heavy atoms of (l, l, h, h), h = 1/2 - l, puts
        # rho(C, Id) at (2^-3 + 2^-4) 4h = 3h/4: exactly 1/4 at h = 1/3
        (Fraction(1, 6), Fraction(1, 4), 4, False),
        (Fraction(1, 6), Fraction(1, 4), 3, True),
        # and just below 1/4 once h is 1/600 lighter
        (Fraction(1, 6) + Fraction(1, 600), Fraction(199, 800), 4, True),
    ],
)
def test_rigidity_threshold_is_strict(light, rho, n_param, counted):
    fiber = FiniteSpace((light, light, Fraction(1, 2) - light, Fraction(1, 2) - light))
    swap = Automorphism(fiber, (0, 1, 3, 2))
    assert halmos_distance(swap, Automorphism.identity(fiber)) == rho
    base = FiniteSpace.uniform(1)
    r = SkewProduct(base, fiber, Automorphism.identity(base), (swap,))
    a = MeasurableSet(base, frozenset({0}))
    want = Fraction(1) if counted else Fraction(0)
    assert oracle.rigidity_statistic(r, a, n_param, 1) == want
    # C(0, p) is the swap at odd p and the identity at even p
    assert rigidity_statistic(r, a, n_param, [1, 2, 3, 10**12 + 1]) == [want, 1, want, want]


@PROPERTY
@given(st.data())
def test_halmos_distance_matches_the_fraction_sum(data):
    space = two_class_space(data.draw)
    p, q = preserving_perm(data.draw, space), preserving_perm(data.draw, space)
    assert halmos_distance(p, q) == oracle.halmos_distance(p, q)
    assert halmos_distance(p, p) == 0


@PROPERTY
@given(skews(), st.data())
def test_relative_mixing_fraction_matches_the_koopman_distance(r, data):
    p = data.draw(st.integers(0, 3 * r.base.atom_count))
    threshold = 1 - min(r.fiber.weights)
    drawn = Fraction(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 20)))
    for eps in (threshold, threshold - Fraction(1, 97), threshold + Fraction(1, 97), drawn):
        if eps > 0:
            assert relative_mixing_fraction(r, p, eps) == oracle.relative_mixing_fraction(r, p, eps)


def test_relative_mixing_fraction_on_a_300_atom_fiber(tmp_path, capsys):
    # past the 256-atom fiber whose fiber x fiber kernel would exceed the
    # size cap, so the Koopman oracle cannot run: compare with the closed
    # form 1 - min w = 399/400 (100 atoms of weight 1/200, 200 of 1/400)
    weights = [Fraction(1, 200)] * 100 + [Fraction(1, 400)] * 200
    heavy_reversed = list(range(99, -1, -1)) + list(range(100, 300))
    cfg = {
        "spaces": {"base": {"uniform": 3},
                   "fiber": {"weights": [str(w) for w in weights]}},
        "automorphisms": {"rot": {"space": "base", "perm": [1, 2, 0]}},
        "cocycles": {"r": {"base_map": "rot", "fiber": "fiber",
                           "maps": [heavy_reversed, list(range(300)), heavy_reversed]}},
        "sequences": {"times": [1, 2, 10**12]},
    }
    path = tmp_path / "big_fiber.json"
    path.write_text(json.dumps(cfg))
    r = load_config(str(path))[0].lookup("cocycles", "r")
    for eps, expected in (("399/400", 0), ("2/5", 0), ("2/1", 1), ("3991/4000", 1)):
        for p in (0, 1, 10**12):
            assert relative_mixing_fraction(r, p, Fraction(eps)) == expected
        code = main(["cocycle", "--config", str(path), "--cocycle", "r",
                     "--stat", "fraction", "--sequence", "times", "--eps", eps])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"] == [[p, f"{expected}/1"] for p in (1, 2, 10**12)]


@PROPERTY
@given(skews(), st.data())
def test_relative_weak_mixing_average_matches_the_per_step_oracle(r, data):
    a, b = subset(data.draw, r.fiber), subset(data.draw, r.fiber)
    horizon = data.draw(st.integers(1, 60))
    assert relative_weak_mixing_average(r, a, b, horizon) == \
        oracle.relative_weak_mixing_average(r, a, b, horizon)
    # a horizon of whole common periods averages what one period does
    period = 1
    for x in r.base.atoms():
        period = math.lcm(period, oracle.cocycle_period(r, x))
    assert relative_weak_mixing_average(r, a, b, 10**12 * period) == \
        oracle.relative_weak_mixing_average(r, a, b, period)


def common_period(r) -> int:
    """A period of every row: the lcm of L ord C(x, L) over the base."""
    return math.lcm(*(oracle.cocycle_period(r, x) for x in r.base.atoms()))


def assert_huge_average_matches(r, a, b, period, rest):
    """The average at N = 10^12 period + rest, whose sum is 10^12 sums over
    one period and the sum over the first ``rest`` steps."""
    whole = 10**12 * period
    want = (
        whole * oracle.relative_weak_mixing_average(r, a, b, period)
        + rest * oracle.relative_weak_mixing_average(r, a, b, rest)
    ) / (whole + rest)
    assert relative_weak_mixing_average(r, a, b, whole + rest) == want


@PROPERTY
@given(skews(), st.data())
def test_relative_weak_mixing_average_at_a_huge_horizon_with_a_remainder(r, data):
    a, b = subset(data.draw, r.fiber), subset(data.draw, r.fiber)
    period = 2 * common_period(r)  # a multiple of a period is one
    rest = data.draw(st.integers(1, period - 1))
    assert_huge_average_matches(r, a, b, period, rest)


def test_relative_weak_mixing_average_over_orbits_of_lengths_1_2_3_5():
    # base cycles (3), (0 7), (1 9 4), (2 5 8 10 6); fiber atoms 0-3 weigh
    # 1/8 and 4-5 weigh 1/4.  Along the 5-cycle, C(2, 5) = (0 1) and
    # C(2, i) = (0 2) for 1 <= i <= 4, so A = {0, 4} comes back to x = 2
    # after 10 steps but to the other four atoms after 5
    base = FiniteSpace.uniform(11)
    fiber = FiniteSpace((Fraction(1, 8),) * 4 + (Fraction(1, 4),) * 2)
    s = Automorphism(base, (7, 9, 5, 3, 1, 8, 2, 0, 10, 4, 6))
    ident = tuple(range(6))
    maps = {3: (0, 1, 2, 3, 5, 4), 0: (1, 2, 3, 0, 4, 5), 1: (0, 1, 2, 3, 5, 4),
            9: (3, 2, 1, 0, 4, 5), 2: (2, 1, 0, 3, 4, 5), 6: (2, 0, 1, 3, 4, 5)}
    cocycle = tuple(Automorphism(fiber, maps.get(x, ident)) for x in base.atoms())
    r = SkewProduct(base, fiber, s, cocycle)
    a = MeasurableSet(fiber, frozenset({0, 4}))
    b = MeasurableSet(fiber, frozenset({1, 2, 5}))

    def returns(x):
        length = oracle.orbit_length(s, x)
        p = length
        while oracle.cocycle_product(r, x, p).image(a) != a:
            p += length
        return p

    assert {x: returns(x) for x in (2, 5, 8, 10, 6)} == {2: 10, 5: 5, 8: 5, 10: 5, 6: 5}
    for horizon in range(1, 41):
        assert relative_weak_mixing_average(r, a, b, horizon) == \
            oracle.relative_weak_mixing_average(r, a, b, horizon)
    period = common_period(r)
    for rest in (1, 7, period - 1):
        assert_huge_average_matches(r, a, b, period, rest)


def assert_sweep_matches(t, sets, k_range):
    detail = mixing_deviation_sweep_detail(t, sets, k_range)
    assert (detail.max_deviation, detail.argmax_offsets, detail.product_value) == \
        oracle.sweep(t, sets, k_range)


@PROPERTY
@given(st.data())
def test_sweep_matches_the_full_grid(data):
    # uniform spaces let any permutation in, so orders like lcm(2, 3) = 6
    # exceed the longest cycle
    space = FiniteSpace.uniform(data.draw(st.integers(1, 8)))
    t = Automorphism(space, tuple(data.draw(st.permutations(range(space.atom_count)))))
    sets = [subset(data.draw, space) for _ in range(3)]
    bound = 3 * oracle.order(t)
    for k_range in range(1, bound + 1):
        assert_sweep_matches(t, sets[:2], k_range)
    assert_sweep_matches(t, sets, data.draw(st.integers(1, bound)))


def test_sweep_past_the_order_keeps_the_argmax_at_the_order():
    # t has order lcm(2, 3) = 6 and the sets meet fully only under t^6 = Id,
    # so the largest deviation, 6/25, sits at offset 6 alone
    space = FiniteSpace.uniform(5)
    t = Automorphism(space, (1, 0, 3, 4, 2))
    sets = [MeasurableSet(space, frozenset({0, 2}))] * 2
    for k_range in (5, 6, 7, 18):
        assert_sweep_matches(t, sets, k_range)
    huge = mixing_deviation_sweep_detail(t, sets, 10**12)
    assert (huge.max_deviation, huge.argmax_offsets) == (Fraction(6, 25), (6,))


# -- unvalidated construction -------------------------------------------------


def assert_valid(result: Automorphism):
    assert type(result.perm) is tuple
    assert result == Automorphism(result.space, result.perm)
    assert hash(result) == hash(Automorphism(result.space, result.perm))


@PROPERTY
@given(st.data())
def test_derived_automorphisms_equal_validated_ones(data):
    space = two_class_space(data.draw)
    a, b = preserving_perm(data.draw, space), preserving_perm(data.draw, space)
    assert_valid(Automorphism.identity(space))
    assert_valid(compose(a, b))
    assert compose(a, b) == oracle.compose(a, b)
    assert_valid(a.inverse())
    assert a.inverse() == oracle.inverse(a)
    expected = Automorphism.identity(space)
    for k in range(6):
        assert_valid(a.power(k))
        assert_valid(a.power(-k))
        assert a.power(k) == expected
        assert a.power(-k) == oracle.inverse(expected)
        expected = oracle.compose(a, expected)


@PROPERTY
@given(st.data())
def test_product_space_equals_the_validated_space(data):
    factors = [two_class_space(data.draw) for _ in range(data.draw(st.integers(1, 3)))]
    fast = product_space(factors)
    slow = FiniteSpace(fast.weights)
    assert type(fast.numerators) is tuple
    assert (fast.weights, fast.numerators, fast.denominator) == \
        (slow.weights, slow.numerators, slow.denominator)
    assert fast == slow and hash(fast) == hash(slow)
    weights = [Fraction(1)]
    for f in factors:
        weights = [w * v for w in weights for v in f.weights]
    assert list(fast.weights) == weights


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 1000])
def test_uniform_space_equals_the_validated_space(n):
    fast = FiniteSpace.uniform(n)
    slow = FiniteSpace((Fraction(1, n),) * n)
    assert type(fast.numerators) is tuple
    assert (fast.weights, fast.numerators, fast.denominator) == \
        (slow.weights, slow.numerators, slow.denominator)
    assert fast == slow and hash(fast) == hash(slow)


@PROPERTY
@given(skews())
def test_skew_automorphisms_equal_validated_ones(r):
    assert_valid(as_automorphism(r))
    assert_valid(relative_product(r))


@st.composite
def ergodic_leaning_skews(draw) -> SkewProduct:
    """Skew products over a uniform base, whose map is a single cycle half
    the time, with a one-atom fiber half the time, so that the fiber
    square is often ergodic."""
    n = draw(st.integers(1, 5))
    base = FiniteSpace.uniform(n)
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        perm = [0] * n
        for i, x in enumerate(order):
            perm[x] = order[(i + 1) % n]
        base_map = Automorphism(base, tuple(perm))
    else:
        base_map = preserving_perm(draw, base)
    fiber = FiniteSpace.uniform(1) if draw(st.booleans()) else two_class_space(draw)
    maps = tuple(preserving_perm(draw, fiber) for _ in base.atoms())
    return SkewProduct(base, fiber, base_map, maps)


@PROPERTY
@given(st.one_of(skews(), ergodic_leaning_skews()))
def test_fiber_square_ergodic_matches_the_built_fiber_square(r):
    assert fiber_square_ergodic(r) == is_ergodic(relative_product(r))


# -- orbits from the return maps ---------------------------------------------


def cycle_base(draw) -> Automorphism:
    """A uniform base of fixed points, of 2-cycles or of mixed cycles,
    atoms placed on the cycles in a drawn order."""
    kind = draw(st.sampled_from(["fixed points", "2-cycles", "mixed"]))
    if kind == "fixed points":
        lengths = [1] * draw(st.integers(1, 6))
    elif kind == "2-cycles":
        lengths = [2] * draw(st.integers(1, 4))
    else:
        lengths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    order = draw(st.permutations(range(sum(lengths))))
    perm, start = [0] * len(order), 0
    for length in lengths:
        cycle = order[start : start + length]
        for k, x in enumerate(cycle):
            perm[x] = cycle[(k + 1) % length]
        start += length
    return Automorphism(FiniteSpace.uniform(len(perm)), tuple(perm))


def any_fiber(draw) -> FiniteSpace:
    kind = draw(st.sampled_from(["one atom", "two classes", "weighted"]))
    if kind == "one atom":
        return FiniteSpace.uniform(1)
    return two_class_space(draw) if kind == "two classes" else weighted_space(draw)


def assert_orbits_match_the_built_maps(r):
    assert skew_orbit_count(r) == orbit_count(as_automorphism(r))
    assert fiber_square_ergodic(r) == is_ergodic(relative_product(r))


@PROPERTY
@given(st.data())
def test_return_map_orbit_count_matches_the_built_skew_product(data):
    s, fiber = cycle_base(data.draw), any_fiber(data.draw)
    maps = tuple(preserving_perm(data.draw, fiber) for _ in s.space.atoms())
    assert_orbits_match_the_built_maps(SkewProduct(s.space, fiber, s, maps))


@PROPERTY
@given(st.data(), st.integers(0, 2**32), st.sampled_from(["iid-cocycle", "random-coboundary"]))
def test_return_map_orbit_count_on_sampled_extensions(data, seed, mode):
    s, fiber = cycle_base(data.draw), any_fiber(data.draw)
    r = sample_random_extension(s, fiber, seed, mode)
    assert_orbits_match_the_built_maps(r)
    if mode == "random-coboundary":
        # R_x = J_{S x}^-1 J_x for the transfer maps J drawn as iid fiber maps
        rng = random.Random(seed)
        js = [oracle.random_preserving_permutation(rng, fiber) for _ in s.space.atoms()]
        want = [oracle.compose(oracle.inverse(js[s.perm[x]]), j) for x, j in enumerate(js)]
        assert r.cocycle == tuple(want)
        for m in r.cocycle:
            assert_valid(m)


def test_return_map_orbit_count_on_the_demo_config():
    cfg, _ = load_config(str(CONFIGS / "skew_demo.json"))
    # over the 4-cycle both return maps C(0, 4) are the identity of the pair
    for name in ("product", "alternating"):
        r = cfg.lookup("cocycles", name)
        assert skew_orbit_count(r) == orbit_count(as_automorphism(r)) == 2


@pytest.mark.parametrize(
    "base, fiber, message",
    [
        (257, 256, "error: --analyze: shape 257 x 256 exceeds the cap of 65536 atoms\n"),
        (2, 40000, "error: --analyze: shape 2 x 40000 exceeds the cap of 65536 atoms\n"),
        (64, 40, "error: --analyze: shape 64 x 40 x 40 exceeds the cap of 65536 atoms\n"),
    ],
)
def test_sample_analyze_past_the_size_cap_still_exits_2(tmp_path, capsys, base, fiber, message):
    # base x fiber past SIZE_CAP is refused as building the skew product
    # refused it, before base x fiber^2 is; nothing of either size is built
    config = {
        "spaces": {"b": {"uniform": base}, "f": {"uniform": fiber}},
        "automorphisms": {"s": {"space": "b", "perm": [(i + 1) % base for i in range(base)]}},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    argv = ["sample", "--config", str(path), "--base", "s", "--fiber", "f",
            "--seed", "3", "--mode", "iid-cocycle", "--analyze"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_fiber_square_ergodic_over_one_atom_is_the_skew_products_own():
    one = FiniteSpace.uniform(1)
    base = FiniteSpace.uniform(3)
    ident = Automorphism.identity(one)
    cycle = SkewProduct(base, one, Automorphism(base, (1, 2, 0)), (ident,) * 3)
    swap = SkewProduct(base, one, Automorphism(base, (1, 0, 2)), (ident,) * 3)
    assert fiber_square_ergodic(cycle) and is_ergodic(relative_product(cycle))
    assert not fiber_square_ergodic(swap) and not is_ergodic(relative_product(swap))


@PROPERTY
@given(st.data(), st.integers(0, 2**32))
def test_random_preserving_permutation_draws_as_the_weight_keyed_shuffle(data, seed):
    # three draws from one generator: the same classes in the same order
    # consume the same random numbers.  The draws are built unvalidated, so
    # each must also pass the validating constructor.
    space = two_class_space(data.draw) if data.draw(st.booleans()) \
        else weighted_space(data.draw)
    rng = random.Random(seed)
    want = [oracle.random_preserving_permutation(rng, space) for _ in range(3)]
    rng = random.Random(seed)
    classes = _weight_classes(space)
    got = [_random_preserving_permutation(rng, space, classes) for _ in range(3)]
    for draw in got:
        assert_valid(draw)
    assert got == want


def test_compose_across_spaces_still_raises():
    a = Automorphism.identity(FiniteSpace.uniform(2))
    b = Automorphism.identity(FiniteSpace.uniform(3))
    with pytest.raises(InvalidInputError):
        compose(a, b)


def test_public_construction_still_validates():
    space = FiniteSpace((Fraction(1, 4), Fraction(3, 4)))
    with pytest.raises(InvalidInputError):
        Automorphism(space, (1, 0))
    with pytest.raises(InvalidInputError):
        Automorphism(space, (0, 0))
