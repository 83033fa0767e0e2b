import functools
from math import gcd

import pytest
from hypothesis import strategies as st

from weylkit import (
    Bicharacter,
    FinAbGroup,
    Phase,
    PhaseMap,
    Subgroup,
    ZERO,
    antisymmetrize,
    induced_model,
    regular_rep,
    schrodinger_model,
    subgroup_span,
    window_group,
    window_weyl,
    zero_multiplier,
)
from weylkit.isotropy import extend_maximal


@functools.cache
def window(p, k, d):
    return window_group(p, k, d)


@functools.cache
def window_model(p, k, d):
    return window_weyl(window(p, k, d))


@functools.cache
def z9_setup():
    """(Z/9)^2 with the symplectic form, L = 3Z x 3Z, and its induced model."""
    G = FinAbGroup([9, 9])
    m = Bicharacter(G, [[ZERO, Phase(1, 9)], [Phase(-1, 9), ZERO]])
    L = subgroup_span(G, [G.element([3, 0]), G.element([0, 3])])
    W = induced_model(G, m, L)
    return G, m, L, W


@functools.cache
def f2_setup(two_d=2):
    """F_2^{2d} with the strict-lower-triangular multiplier (a bicharacter)."""
    G = FinAbGroup([2] * two_d)
    mat = [[Phase(1, 2) if i > j else ZERO for j in range(two_d)] for i in range(two_d)]
    m = Bicharacter(G, mat)
    return G, m


@pytest.fixture(scope="session")
def z9():
    return z9_setup()


@pytest.fixture(scope="session")
def f2():
    return f2_setup(2)


def _symplectic_family(draw):
    """Two induced models of a block-symplectic form on (Z/n_1 x .. x Z/n_r)^2."""
    moduli = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=2))
    r = len(moduli)
    G = FinAbGroup(moduli + moduli)
    mat = [[ZERO] * (2 * r) for _ in range(2 * r)]
    for i, n in enumerate(moduli):
        u = draw(st.sampled_from([v for v in range(1, n) if gcd(v, n) == 1] or [0]))
        mat[i][i + r], mat[i + r][i] = Phase(u, n), Phase(-u, n)
    m = Bicharacter(G, mat)
    mt = antisymmetrize(m)
    seed = G.element([draw(st.integers(0, n - 1)) for n in G.moduli])
    return [induced_model(G, m, extend_maximal(subgroup_span(G, []), mt)),
            induced_model(G, m, extend_maximal(subgroup_span(G, [seed]), mt))]


@st.composite
def same_multiplier_pairs(draw):
    """(W1, W2) of one multiplier: windows, Schrodinger, regular and induced models,
    direct sums and twists, including the trivial group and moduli of 1."""
    kind = draw(st.sampled_from(["window", "schrodinger", "regular", "induced"]))
    if kind == "window":
        family = [window_model(*draw(st.sampled_from([(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)])))]
    elif kind == "schrodinger":
        W = schrodinger_model(FinAbGroup(draw(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=2))))
        line = extend_maximal(subgroup_span(W.group, []), antisymmetrize(W.multiplier))
        family = [W, induced_model(W.group, W.multiplier, line)]
    elif kind == "regular":
        G = FinAbGroup(draw(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=2)))
        family = [regular_rep(G), induced_model(G, zero_multiplier(G), Subgroup.full(G))]
    else:
        family = _symplectic_family(draw)
    W1, W2 = draw(st.sampled_from(family)), draw(st.sampled_from(family))
    extra = draw(st.sampled_from(family))
    if draw(st.booleans()) and W1.dim + extra.dim <= 20:
        W1 = W1.direct_sum(extra)
    if draw(st.booleans()) and W1.group.order <= 256:
        G = W1.group
        den = draw(st.sampled_from([2, 3, 4]))
        values = {x.coords: Phase(draw(st.integers(0, den - 1)) if x.rank else 0, den)
                  for x in G.elements()}
        a = PhaseMap(G, values)
        W1, W2 = W1.twisted(a), W2.twisted(a)
    return W1, W2
