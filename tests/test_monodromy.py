"""A second derivation of the cycle count on the Inoue-Hirzebruch words.

On a blow-up word with no g every blow-up is at a crossing, so it is a
monomial chart: letter a is A = [[1, 1], [1, 0]] and letter b is
B = [[1, 0], [1, 1]].  Their product W in word order is the exponent matrix
of the surface's monomial germ.  Its determinant tells one cycle (-1) from
two (+1), independently of ``find_cycles``, and each cycle's continued
fraction matrix, the product of [[b_i, -1], [1, 0]] over its curves with
b_i = -C_i^2 (plus 2 on a nodal curve), has the trace of W on two cycles
and of W^2 on one.
"""

from viilattice import NODAL_RATIONAL, find_cycles, gss_config, sigma_classify

from test_gss import corpus

A = ((1, 1), (1, 0))
B = ((1, 0), (1, 1))
IDENTITY = ((1, 0), (0, 1))


def product(left, right):
    return tuple(
        tuple(sum(left[i][k] * right[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def word_matrix(word: str):
    w = IDENTITY
    for letter in word:
        w = product(w, A if letter == "a" else B)
    return w


def det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def trace(m) -> int:
    return m[0][0] + m[1][1]


def test_the_word_matrix_counts_the_cycles_of_every_word_without_g_up_to_b2_9():
    words = [word for n in range(1, 10) for word in corpus(n) if "g" not in word]
    assert len(words) == 144
    parities = []
    for word in words:
        config = gss_config(word)
        w = word_matrix(word)
        cycles = [rec for rec in find_cycles(config) if rec.length >= 1]
        parity = sigma_classify(config).ih_parity
        parities.append(parity)
        assert (det(w) == -1) == (parity == "odd" and len(cycles) == 1), word
        assert (det(w) == 1) == (parity == "even" and len(cycles) == 2), word
        expected = trace(w) if len(cycles) == 2 else trace(product(w, w))
        for rec in cycles:
            fraction = IDENTITY
            for cid in rec.member_ids:
                curve = config.curve(cid)
                b = -curve.self_int + (2 if curve.kind == NODAL_RATIONAL else 0)
                fraction = product(fraction, ((b, -1), (1, 0)))
            assert trace(fraction) == expected, (word, rec)
    assert parities.count("odd") == parities.count("even") == 72
