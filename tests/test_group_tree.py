import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftq import (
    TreeDistribution,
    ball,
    distance,
    exact_quality_tree,
    inverse,
    left_translate_estimator,
    multiply,
    quality_inf_ball,
    reduce_word,
    right_translate_estimator,
    standard_tree_distribution,
    table_estimator,
    truncation_estimator,
)
from shiftq import cli, group_tree
from shiftq.estimators import Estimator
from shiftq.group_tree import evaluate_tree_estimator, max_quality_inf_ball
from shiftq.util import EnumerationLimitError

HALF = Fraction(1, 2)


def random_word(rng: np.random.Generator, max_len: int) -> str:
    length = int(rng.integers(0, max_len + 1))
    out = []
    for _ in range(length):
        choices = [c for c in "abc" if not out or c != out[-1]]
        out.append(choices[int(rng.integers(0, len(choices)))])
    return "".join(out)


words_strategy = st.builds(
    lambda seed, n: random_word(np.random.default_rng(seed), n),
    st.integers(0, 2**32 - 1),
    st.integers(0, 8),
)


def test_reduce_word_cancels_adjacent_duplicates():
    assert reduce_word("abba") == ""
    assert reduce_word("aa") == ""
    assert reduce_word("aba") == "aba"
    assert reduce_word("abbcca") == ""
    assert reduce_word("") == ""


def test_multiply_examples():
    assert multiply("ab", "ba") == ""
    assert multiply("ab", "a") == "aba"
    assert multiply("", "abc") == "abc"
    assert multiply("abc", "cb") == "a"


def test_generators_are_involutions():
    for g in "abc":
        assert multiply(g, g) == ""
        assert inverse(g) == g


def test_inverse_reverses_words():
    assert inverse("abc") == "cba"
    assert multiply("abc", "cba") == ""


@given(words_strategy)
def test_word_times_inverse_is_identity(u):
    assert multiply(u, inverse(u)) == ""
    assert multiply(inverse(u), u) == ""


@given(words_strategy, words_strategy, words_strategy)
def test_multiplication_is_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(words_strategy, words_strategy)
def test_distance_is_a_metric(u, v):
    assert distance(u, v) == distance(v, u)
    assert (distance(u, v) == 0) == (u == v)
    assert distance(u, v) <= len(u) + len(v)


def test_distance_examples():
    assert distance("", "a") == 1
    assert distance("ab", "ac") == 2
    assert distance("abc", "abc") == 0


def test_ball_sizes_and_order():
    assert len(ball(0)) == 1
    assert len(ball(1)) == 4
    assert len(ball(2)) == 10
    assert len(ball(8)) == 1 + 3 * (2**8 - 1)
    b = ball(2)
    assert b[0] == "" and set(b[1:4]) == {"a", "b", "c"}
    assert all(len(w) <= 2 for w in b)
    # Built once per radius and immutable, so the shared ball cannot be changed.
    assert isinstance(b, tuple) and ball(2) is b


def test_over_cap_ball_raises_before_building_words(capsys):
    # |ball(R)| = 3 * 2^R - 2: radius 18 fits the cap of 10^6 words, 19 does not.
    assert len(ball(18)) == 3 * 2**18 - 2 <= 1_000_000
    tracemalloc.start()
    try:
        for radius in (19, 25, 10**9):
            with pytest.raises(EnumerationLimitError, match="^ball exceeds 1000000 words$"):
                ball(radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Building even the first 19 layers would take well over 100 MiB.
    assert peak < 64 * 1024, peak
    assert cli.main(["tree-demo", "--radius", "25"]) == 1
    assert capsys.readouterr().err == "enumeration limit: ball exceeds 1000000 words\n"


def test_invalid_words_are_rejected():
    with pytest.raises(ValueError):
        multiply("ax", "a")
    with pytest.raises(ValueError):
        distance("aab", "")  # not reduced
    # Every public entry point checks its words; only the core trusts them.
    mu = standard_tree_distribution()
    for bad in ("ax", "abb", "aab"):
        for e in (truncation_estimator(), left_translate_estimator("ab"), table_estimator({"a": "b"})):
            with pytest.raises(ValueError):
                evaluate_tree_estimator(e, bad)
            with pytest.raises(ValueError):
                exact_quality_tree(e, mu, bad, HALF)
        with pytest.raises(ValueError):
            multiply("a", bad)
        with pytest.raises(ValueError):
            distance("a", bad)


def test_tree_rules_are_one_sample_estimators():
    rules = (
        truncation_estimator(),
        left_translate_estimator("ab"),
        right_translate_estimator("c"),
        table_estimator({"a": "b"}),
    )
    for e in rules:
        assert type(e) is Estimator and e.n == 1
        with pytest.raises(ValueError):
            e.evaluate(("a", "b"))
    assert [e.evaluate(("ab",)) for e in rules] == ["a", "abab", "cab", ""]


def test_tree_estimator_is_checked_when_built():
    with pytest.raises(ValueError):
        left_translate_estimator("aa")
    with pytest.raises(ValueError):
        right_translate_estimator("ad")
    with pytest.raises(ValueError):
        table_estimator({}, default="bb")
    with pytest.raises(ValueError):
        left_translate_estimator("cc")
    with pytest.raises(ValueError):
        table_estimator({}, default="x")
    # Table entries are words too: a key or guess that is not reduced could
    # never match a shift, so the rule would silently score 0 there.
    for table in ({"aa": "bb"}, {"a": "bb"}, {"ax": "a"}, {"b": "ad"}):
        with pytest.raises(ValueError):
            table_estimator(table)


def test_table_rule_keeps_a_read_only_copy():
    source = {"a": "ab"}
    e = table_estimator(source, default="c")
    source["a"] = "c"
    source["b"] = "a"
    assert evaluate_tree_estimator(e, "a") == "ab"
    assert evaluate_tree_estimator(e, "b") == "c"
    # The copy lives only in the rule's closure; no attribute exposes it.
    assert not hasattr(e, "table")


def test_tree_distribution_needs_exact_unit_mass():
    with pytest.raises(ValueError):
        TreeDistribution(atoms=(("a", Fraction(1, 2)), ("b", Fraction(1, 3))))
    with pytest.raises(ValueError):
        TreeDistribution(atoms=(("aa", Fraction(1, 2)), ("b", Fraction(1, 2))))
    mu = standard_tree_distribution()
    assert sum(m for _, m in mu.atoms) == 1


def test_truncation_estimator_evaluates():
    e = truncation_estimator()
    assert evaluate_tree_estimator(e, "abc") == "ab"
    assert evaluate_tree_estimator(e, "a") == ""
    # The identity has no last letter; the estimator guesses a neighbor.
    assert evaluate_tree_estimator(e, "") == "a"


def test_truncation_qualities_are_exact():
    mu = standard_tree_distribution()
    e = truncation_estimator()
    assert exact_quality_tree(e, mu, "", HALF) == 1
    assert exact_quality_tree(e, mu, "a", HALF) == 1
    assert exact_quality_tree(e, mu, "b", HALF) == Fraction(2, 3)
    assert exact_quality_tree(e, mu, "c", HALF) == Fraction(2, 3)


def test_truncation_is_two_thirds_everywhere_else():
    mu = standard_tree_distribution()
    e = truncation_estimator()
    for theta in ball(8):
        want = 1 if theta in ("", "a") else Fraction(2, 3)
        assert exact_quality_tree(e, mu, theta, HALF) == want
    q, arg = quality_inf_ball(e, mu, HALF, 8)
    assert q == Fraction(2, 3)


def test_quality_does_not_depend_on_delta_inside_unit_interval():
    mu = standard_tree_distribution()
    e = truncation_estimator()
    assert exact_quality_tree(e, mu, "b", Fraction(1, 4)) == exact_quality_tree(
        e, mu, "b", Fraction(9, 10)
    )
    with pytest.raises(ValueError):
        exact_quality_tree(e, mu, "b", Fraction(1))
    with pytest.raises(ValueError):
        exact_quality_tree(e, mu, "b", Fraction(3, 2))


def _rules_for_the_sweep():
    rules = [truncation_estimator()]
    for w in ball(4):
        rules += [left_translate_estimator(w), right_translate_estimator(w)]
    rng = np.random.default_rng(7)
    codomain = ball(3)
    for _ in range(6):
        table = {w: codomain[int(rng.integers(0, len(codomain)))] for w in ball(3)}
        rules.append(table_estimator(table, default=codomain[int(rng.integers(0, len(codomain)))]))
    return rules


def test_ball_sweep_matches_brute_force():
    mu = standard_tree_distribution()
    shifts = ball(6)
    for e in _rules_for_the_sweep():
        qs = [exact_quality_tree(e, mu, theta, HALF) for theta in shifts]
        for radius in range(2, 7):
            # ball(radius) is a prefix of ball(6): both are breadth-first.
            prefix = qs[: len(ball(radius))]
            lowest = min(prefix)
            assert quality_inf_ball(e, mu, HALF, radius) == (lowest, shifts[prefix.index(lowest)])


def _counted(e: Estimator, k: int, calls: list) -> Estimator:
    """e, noting k in calls each time its rule is called (once per atom and shift)."""

    def fn(x):
        calls.append(k)
        return e.fn(x)

    return Estimator(label=e.label, fn=fn, n=1)


def test_ball_sweep_stops_at_the_first_zero():
    # The standard law has 3 atoms, so the rule is called 3 times per shift.
    calls: list = []
    mu = standard_tree_distribution()
    assert quality_inf_ball(_counted(right_translate_estimator(""), 0, calls), mu, HALF, 8) == (0, "")
    assert len(calls) == 3
    calls.clear()
    # Truncation never reaches 0, so it still sweeps the whole ball.
    assert quality_inf_ball(_counted(truncation_estimator(), 0, calls), mu, HALF, 8) == (Fraction(2, 3), "b")
    assert len(calls) == 3 * len(ball(8)) == 2298


def test_tree_demo_evaluates_only_the_shifts_it_needs(monkeypatch, tmp_path, capsys):
    calls: list = []
    for name in ("truncation_estimator", "left_translate_estimator", "right_translate_estimator"):
        make = getattr(group_tree, name)
        monkeypatch.setattr(group_tree, name, lambda *word, make=make: _counted(make(*word), 0, calls))
    assert cli.main(["tree-demo", "--radius", "8", "--out", str(tmp_path / "tree.json")]) == 0
    # 766 table rows, which also give the truncation minimum. Of the 92
    # translates, x*"" and ""*x stop at their first shift (quality 0), x*a
    # sweeps all 766 shifts to its minimum 1/3, and each of the other 89 stops
    # at its first shift, already at or below that 1/3:
    # 766 + 1 + 1 + 766 + 89 = 1623 shifts, 3 rule calls each.
    assert len(calls) == 3 * 1623 == 4869


def _sweep_over_exact_quality(e, mu, radius, floor):
    """quality_inf_ball's contract, one exact_quality_tree Fraction per shift compared with floor."""
    best = None
    for theta in ball(radius):
        q = exact_quality_tree(e, mu, theta, HALF)
        if best is None or q < best[0]:
            best = (q, theta)
            if q <= floor:
                break
    return best


_RATIONAL_FLOORS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


# A float floor is read exactly: float(1/3) lies below 1/3, so a rule whose
# minimum is 1/3 does not stop at it.
@pytest.mark.parametrize("floor", [0, 1, *_RATIONAL_FLOORS, *(float(f) for f in _RATIONAL_FLOORS)])
def test_integer_floor_test_matches_a_sweep_over_exact_qualities(floor):
    mu = standard_tree_distribution()
    rules = [truncation_estimator()]
    for w in ball(2):
        rules += [left_translate_estimator(w), right_translate_estimator(w)]
    for e in rules:
        assert quality_inf_ball(e, mu, HALF, 6, floor) == _sweep_over_exact_quality(e, mu, 6, floor)


@pytest.mark.parametrize(
    "delta", [Fraction(1), Fraction(3, 2), Fraction(0), 1, -1, Fraction(-1, 2), "1/2", 0.5]
)
def test_ball_sweep_checks_delta_even_when_it_stops_at_once(delta):
    mu = standard_tree_distribution()
    e = right_translate_estimator("")
    if Fraction(delta) == HALF:
        # 1/2 as a string or a float is converted, as a Fraction delta is taken.
        assert quality_inf_ball(e, mu, delta, 8) == (0, "")
    else:
        with pytest.raises(ValueError, match="^delta must lie strictly between 0 and 1$"):
            quality_inf_ball(e, mu, delta, 8)


_TABLE_WORDS = ball(2)


def _tree_rule(kind: str, word: str, seed: int) -> Estimator:
    if kind == "left":
        return left_translate_estimator(word)
    if kind == "right":
        return right_translate_estimator(word)
    rng = np.random.default_rng(seed)
    table = {w: _TABLE_WORDS[int(rng.integers(0, len(_TABLE_WORDS)))] for w in _TABLE_WORDS}
    return table_estimator(table, default=word)


tree_rules_strategy = st.lists(
    st.builds(
        _tree_rule,
        st.sampled_from(["left", "right", "table"]),
        st.sampled_from(_TABLE_WORDS),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=8,
)


@given(tree_rules_strategy, st.integers(2, 4))
def test_pruned_sweep_gives_the_full_sweeps_maximum(rules, radius):
    mu = standard_tree_distribution()
    full = max(quality_inf_ball(e, mu, HALF, radius)[0] for e in rules)
    calls: list = []
    counted = [_counted(e, k, calls) for k, e in enumerate(rules)]
    assert max_quality_inf_ball(counted, mu, HALF, radius) == full
    # Rule k stops at its first shift at or below the largest minimum of the
    # rules before it (0 before the first one), or sweeps the whole ball.
    best = 0
    for k, e in enumerate(rules):
        qs = [exact_quality_tree(e, mu, theta, HALF) for theta in ball(radius)]
        stop = next((i + 1 for i, q in enumerate(qs) if q <= best), len(qs))
        assert calls.count(k) == len(mu.atoms) * stop
        best = max(best, min(qs))


def test_pruned_sweep_of_no_rules_is_zero():
    assert max_quality_inf_ball([], standard_tree_distribution(), HALF, 2) == 0


@pytest.mark.parametrize(
    "index, q, line",
    [
        (None, None, "  ... 15 more shifts, every remaining q = 2/3"),
        (21, Fraction(1, 3), "  ... 15 more shifts, remaining q from 1/3 to 2/3"),
        (10, Fraction(1), "  ... 15 more shifts, remaining q from 2/3 to 1/1"),
    ],
)
def test_tree_demo_claims_only_what_the_unprinted_rows_share(monkeypatch, capsys, index, q, line):
    real = cli._tree_comparison

    def edited(radius, word_radius):
        tree = real(radius, word_radius)
        rows = list(tree.rows)
        if index is not None:
            rows[index] = (rows[index][0], q)
        return tree._replace(rows=rows)

    monkeypatch.setattr(cli, "_tree_comparison", edited)
    assert cli.main(["tree-demo", "--radius", "3"]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("radius", range(2, 10))
def test_truncation_meets_the_averaging_bound_on_every_ball(radius):
    # A rule is right at shift theta on atom z only when its guess at
    # x = theta*z is theta, so each x of ball(radius + 1) counts for at most
    # one shift of ball(radius): the mean quality over ball(radius) is at
    # most |ball(radius + 1)| / (3 |ball(radius)|). Truncation counts every
    # x once, for theta = truncation(x), so its rows meet the bound exactly.
    rows = cli._tree_comparison(radius, 0).rows
    mean = sum(q for _, q in rows) / len(rows)
    assert mean == Fraction(len(ball(radius + 1)), 3 * len(ball(radius)))


def test_translates_never_beat_one_third():
    mu = standard_tree_distribution()
    for w in ball(4):
        for make in (left_translate_estimator, right_translate_estimator):
            q, _ = quality_inf_ball(make(w), mu, HALF, 8)
            assert q <= Fraction(1, 3)


def test_identity_right_translate_never_guesses_right():
    mu = standard_tree_distribution()
    e = right_translate_estimator("")
    for theta in ball(3):
        assert exact_quality_tree(e, mu, theta, HALF) == 0


def test_single_letter_left_translate_hits_one_third_at_identity():
    mu = standard_tree_distribution()
    e = left_translate_estimator("a")
    # x = theta * y; guess x * a equals theta exactly when y = a.
    assert exact_quality_tree(e, mu, "", HALF) == Fraction(1, 3)
    assert exact_quality_tree(e, mu, "ab", HALF) == Fraction(1, 3)


def test_random_tables_never_beat_truncation():
    mu = standard_tree_distribution()
    rng = np.random.default_rng(2024)
    domain = ball(3)
    codomain = ball(3)
    two_thirds = Fraction(2, 3)
    # Early exit per table: stop at the first shift at or below 2/3.
    thetas = ball(4)
    for _ in range(10_000):
        table = {w: codomain[int(rng.integers(0, len(codomain)))] for w in domain}
        e = table_estimator(table, default=codomain[int(rng.integers(0, len(codomain)))])
        found_weak_shift = False
        for theta in thetas:
            if exact_quality_tree(e, mu, theta, HALF) <= two_thirds:
                found_weak_shift = True
                break
        assert found_weak_shift


def test_table_estimator_lookup_and_default():
    e = table_estimator({"a": "ab"}, default="c")
    assert evaluate_tree_estimator(e, "a") == "ab"
    assert evaluate_tree_estimator(e, "bc") == "c"
