"""The blow-up-word corpus: every word up to rotation with b2 <= 9 through
``gss_config``, checked against a second derivation of the curve classes.

``gss_config`` tracks the crossings of the tower on the universal cover.
The oracle here reads the classes off the word alone: curve a has the class
D_a = e_a - sum of e_{(j+1) mod n} over the steps j that blow it up, in the
basis e_0 .. e_{n-1} with e_i . e_j = -delta_ij.  Curve a is blown up at O_a,
again at O_{a+1} when letter a+1 is "a", and then once for each "b" that
follows directly.

``sample`` runs the same checks beyond the default enumeration cap, as CI
does on every word with b2 = 9..11 and a seeded sample at b2 = 12:

    VII_ENUM_CAP=12 PYTHONPATH=src:tests python -c "import test_gss; test_gss.sample(9, 12, whole=11)"
"""

import itertools
import os
import random

import pytest

from viilattice import (
    ENOKI_CLASS,
    INOUE_HIRZEBRUCH,
    NODAL_RATIONAL,
    SMOOTH_RATIONAL,
    CurveConfig,
    DomainError,
    LatticeClass,
    NoSolution,
    Representation,
    canonical_form,
    enoki_cycle_config,
    enumerate_representations,
    find_cycles,
    gss_config,
    intersection_matrix,
    sigma_classify,
    singrat_config,
    solve_nac,
    validate,
    verify_representation,
)

# words up to rotation, for b2 = 1 .. 8
CORPUS_SIZES = {1: 2, 2: 4, 3: 7, 4: 14, 5: 26, 6: 59, 7: 122, 8: 284}


def least_rotation(word: str) -> str:
    return min(word[k:] + word[:k] for k in range(len(word)))


def corpus(n: int) -> list[str]:
    """Every blow-up word of length n, each as the least of its rotations."""
    words = ("".join(letters) for letters in itertools.product("abg", repeat=n))
    return [
        word
        for word in words
        if "gb" not in word + word[0] and set(word) != {"b"} and word == least_rotation(word)
    ]


def empty_words(n: int) -> set[str]:
    """The words on which enumerate finds no representation today: a.b^(n-1)
    for n >= 2, and a.b^i.a.b^j for i, j >= 1."""
    words = {"a" + "b" * (n - 1)} if n >= 2 else set()
    words |= {least_rotation("a" + "b" * i + "a" + "b" * (n - 2 - i)) for i in range(1, n - 2)}
    return words


def hits(word: str, a: int) -> list[int]:
    """The steps j whose point O_j lies on curve a, which blows it up."""
    n, steps = len(word), [a]
    if word[(a + 1) % n] == "a":
        steps.append(a + 1)
        while word[(steps[-1] + 1) % n] == "b":
            steps.append(steps[-1] + 1)
    return steps


def blowup_classes(word: str) -> list[tuple[int, ...]]:
    n = len(word)
    classes = []
    for a in range(n):
        vec = [0] * n
        vec[a] += 1
        for j in hits(word, a):
            vec[(j + 1) % n] -= 1
        classes.append(tuple(vec))
    return classes


def check_word(word: str, cap: int | None = None) -> bool:
    """Assert every corpus property of word; return whether enumerate finds
    a representation of its configuration."""
    n = len(word)
    config = gss_config(word)
    assert validate(config).valid, word
    assert config.b2 == n and [c.id for c in config.curves] == list(range(n))
    assert sigma_classify(config).sigma == 3 * n - word.count("g"), word
    # each curve meets the others with total multiplicity <= 3, a node counting 2
    degree = [2 if c.kind == NODAL_RATIONAL else 0 for c in config.curves]
    for i, j, m in config.intersections:
        degree[i] += m
        degree[j] += m
    assert max(degree) <= 3, (word, degree)
    sol = solve_nac(config, 1)
    assert isinstance(sol, NoSolution) == (word == "g" * n), word
    if "g" not in word:
        # the curves of an Inoue-Hirzebruch surface add up to -K
        assert sol.index == 1 and set(sol.coeffs) == {1}, word
    classes = blowup_classes(word)
    gram = [[-sum(map(int.__mul__, u, v)) for v in classes] for u in classes]
    assert gram == intersection_matrix(config), word
    if not isinstance(sol, NoSolution):
        # the solver's divisor in the classes' coordinates is -K = -(e_0 + ... + e_{n-1})
        divisor = [sum(k * vec[t] for k, vec in zip(sol.coeffs, classes)) for t in range(n)]
        assert divisor == [-1] * n, word
    reps = enumerate_representations(config, cap=cap)
    if reps:
        odd = sigma_classify(config).torsion_crosscheck is True
        rep = Representation(tuple(map(LatticeClass, classes)), odd_ih=odd)
        assert verify_representation(config, rep).ok, word
        assert canonical_form(config, rep) in reps, word
    return bool(reps)


@pytest.mark.parametrize("n", CORPUS_SIZES)
def test_every_word_up_to_b2_8(n):
    words = corpus(n)
    assert len(words) == CORPUS_SIZES[n]
    assert {word for word in words if not check_word(word)} == empty_words(n)


def test_every_word_at_b2_9():
    words = corpus(9)
    assert len(words) == 647
    assert {word for word in words if not check_word(word, 9)} == empty_words(9)


def sample(low: int, high: int, per_rank: int = 40, seed: int = 0, whole: int = 0) -> None:
    """check_word on a seeded sample of words of each rank from low to high,
    and on every word of each rank up to whole, enumerating up to the cap
    VII_ENUM_CAP; the empty words are pinned too.  Each rank draws its
    sample either way, so a rank's sample does not depend on whole."""
    cap = int(os.environ["VII_ENUM_CAP"])
    rng = random.Random(seed)
    for n in range(low, high + 1):
        words = corpus(n)
        drawn = rng.sample(words, per_rank)
        for word in words if n <= whole else drawn:
            assert check_word(word, cap) == (word not in empty_words(n)), word


def test_a_sample_at_b2_8_runs_as_the_ci_step_does(monkeypatch):
    monkeypatch.setenv("VII_ENUM_CAP", "8")
    sample(8, 8, per_rank=5)


# every word with b2 <= 3: each curve's kind and square, and the intersections
SMALL_WORDS = {
    "g": ([(NODAL_RATIONAL, 0)], ()),
    "a": ([(NODAL_RATIONAL, -1)], ()),
    "gg": ([(SMOOTH_RATIONAL, -2)] * 2, ((0, 1, 2),)),
    "ag": ([(SMOOTH_RATIONAL, -2), (NODAL_RATIONAL, -1)], ((0, 1, 1),)),
    "aa": ([(NODAL_RATIONAL, -1)] * 2, ()),
    "ab": ([(SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -4)], ((0, 1, 2),)),
    "ggg": ([(SMOOTH_RATIONAL, -2)] * 3, ((0, 1, 1), (0, 2, 1), (1, 2, 1))),
    "agg": ([(SMOOTH_RATIONAL, -2)] * 2 + [(SMOOTH_RATIONAL, -3)], ((0, 1, 1), (1, 2, 2))),
    "aag": (
        [(SMOOTH_RATIONAL, -3), (SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -3)],
        ((0, 2, 1), (1, 2, 2)),
    ),
    "aaa": ([(SMOOTH_RATIONAL, -3)] * 3, ((0, 1, 1), (0, 2, 1), (1, 2, 1))),
    "aab": ([(NODAL_RATIONAL, -2), (SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -3)], ((1, 2, 2),)),
    "abg": (
        [(SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -2), (NODAL_RATIONAL, -2)],
        ((0, 1, 1), (1, 2, 1)),
    ),
    "abb": (
        [(SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -2), (SMOOTH_RATIONAL, -5)],
        ((0, 1, 1), (0, 2, 1), (1, 2, 1)),
    ),
}


def test_the_words_up_to_b2_3_by_hand():
    assert sorted(SMALL_WORDS) == sorted(corpus(1) + corpus(2) + corpus(3))
    for word, (curves, intersections) in SMALL_WORDS.items():
        config = gss_config(word)
        assert [(c.kind, c.self_int) for c in config.curves] == curves, word
        assert config.intersections == intersections, word


def test_the_enoki_words_have_no_b_and_the_hirzebruch_words_no_g():
    for word in corpus(4):
        verdict = sigma_classify(gss_config(word)).verdict
        assert (verdict == ENOKI_CLASS) == (set(word) == {"g"}), word
        assert (verdict == INOUE_HIRZEBRUCH) == ("g" not in word), word


def isomorphic(one, other) -> bool:
    """Whether some renumbering of one's curves gives other's kinds, squares
    and intersection numbers, by trying every renumbering."""
    if one.b2 != other.b2 or len(one.curves) != len(other.curves):
        return False
    left, right = intersection_matrix(one), intersection_matrix(other)
    size = len(one.curves)
    for perm in itertools.permutations(range(size)):
        if all(one.curves[i].kind == other.curves[perm[i]].kind for i in range(size)) and all(
            left[i][j] == right[perm[i]][perm[j]] for i in range(size) for j in range(size)
        ):
            return True
    return False


@pytest.mark.parametrize("n", range(1, 7))
def test_the_family_words(n):
    assert isomorphic(gss_config("g" * n), enoki_cycle_config(n))
    if n >= 2:
        assert isomorphic(gss_config("a" + "b" * (n - 2) + "g"), singrat_config(n, n - 1))
        assert not isomorphic(gss_config("a" * n), singrat_config(n, n - 1))


@pytest.mark.parametrize("n", range(3, 9))
def test_the_all_a_word_is_a_ring_of_minus_3_curves_or_two(n):
    config = gss_config("a" * n)
    assert {(c.kind, c.self_int) for c in config.curves} == {(SMOOTH_RATIONAL, -3)}
    assert len(find_cycles(config)) == (1 if n % 2 else 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_relabelled_words_give_the_same_answers(n):
    for word in corpus(n):
        config = gss_config(word)
        flipped = CurveConfig(n, config.curves[::-1], config.intersections)
        sol, flipped_sol = solve_nac(config, 1), solve_nac(flipped, 1)
        if isinstance(sol, NoSolution):
            assert isinstance(flipped_sol, NoSolution), word
        else:
            assert flipped_sol.coeffs == sol.coeffs[::-1], word
        assert sigma_classify(flipped) == sigma_classify(config), word
        assert len(enumerate_representations(flipped)) == len(enumerate_representations(config))


@pytest.mark.parametrize(
    "word", ["", "gab c", "gx", "gb", "bg", "agbb", "b", "bbb", 3, ["g"], b"g"]
)
def test_a_word_that_is_no_blow_up_word_is_refused(word):
    with pytest.raises(DomainError):
        gss_config(word)
