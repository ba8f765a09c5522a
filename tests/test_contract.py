"""The cap contract: one table over the CLI's inputs and routes.

Each row names an input, a pipeline of cli.PIPELINES and, for n = 1 and
n = 2 (coefficients in k^n), either the top caps (D, W) of the row's
sweep or the message of the ValueError with which the route refuses the
input.  A sweep takes every cap (d, w) with d <= D and w <= W.  A Lie
route has no k^n form, so its n = 2 column is None.  An input is a
built-in of cli.BUILTINS (a sized one with its size, as in poly:2),
reached through cli.load, or one of the Lie algebras of LOCAL.  Two
checks run over the table:

- restriction: on every row, the table at (d, w) is the table at the
  top caps cut down to (d, w), so it is also the table at (d+1, w+1)
  cut down;
- agreement: the routes of an input give the same table at one n, at
  every cap their sweeps share.

A sweep, not one pinned cap, catches an entry that comes out right only
at some caps: the top degree and weight of a cobar table, for one, need
generators one step past the caps.

A new route or input joins the contract by adding its rows to ROWS.
"""

import functools

import pytest

from symhom import cli
from symhom.betti import BettiTable
from symhom.lie import (abelian_lie, direct_sum, heisenberg, nonabelian_2dim,
                        sl2)
from test_lie import even_letters, odd_first

NOT_CONNECTED = "algebra is not connected graded"

# Lie algebras that are no built-in: sums and the sign-sensitive cases
LOCAL = {
    "sl2+heisenberg": lambda: direct_sum(sl2(), heisenberg()),
    "nab2+abelian:1": lambda: direct_sum(nonabelian_2dim(), abelian_lie(1)),
    "even-letters": even_letters,
    "sl2+even-letters": lambda: direct_sum(sl2(), even_letters()),
    "odd-first": odd_first,
}

ROWS = [
    # input             pipeline       n = 1    n = 2
    ("dual-numbers",     "dg",          (5, 7),  (3, 4)),
    ("dual-numbers",     "bar",         (3, 5),  (3, 4)),
    ("free:1",           "dg",          (3, 4),  (3, 3)),
    ("free:1",           "bar",         (3, 4),  (3, 3)),
    ("free:2",           "dg",          (2, 3),  (2, 3)),
    ("free:2",           "bar",         (2, 3),  (2, 3)),
    ("poly:1",           "bar",         (3, 5),  (3, 3)),
    ("poly:1",           "cobar",       (3, 5),  None),
    ("poly:1",           "closed-form", (3, 5),  None),
    ("poly:2",           "bar",         (3, 4),  (2, 3)),
    ("poly:2",           "cobar",       (3, 4),  None),
    ("poly:2",           "closed-form", (3, 4),  None),
    ("poly:3",           "bar",         (2, 3),  (1, 2)),
    ("poly:3",           "cobar",       (2, 3),  None),
    ("poly:3",           "closed-form", (2, 3),  None),
    ("abelian:1",        "cobar",       (3, 5),  None),
    ("abelian:1",        "closed-form", (3, 5),  None),
    ("abelian:2",        "cobar",       (3, 5),  None),
    ("abelian:2",        "closed-form", (3, 5),  None),
    ("sl2",              "cobar",       (3, 5),  None),
    ("sl2",              "closed-form", (3, 5),  None),
    ("heisenberg",       "cobar",       (3, 5),  None),
    ("heisenberg",       "closed-form", (3, 5),  None),
    ("nab2",             "cobar",       (3, 5),  None),
    ("nab2",             "closed-form", (3, 5),  None),
    ("m2",               "bar",  NOT_CONNECTED,  NOT_CONNECTED),
    ("ut2",              "bar",  NOT_CONNECTED,  NOT_CONNECTED),
] + [(name, pipeline, (3, 5), None) for name in LOCAL
     for pipeline in ("cobar", "closed-form")]

# (input, pipeline, n, top caps) of every sweep, and of every refusal
SWEEPS = [(name, p, n, top) for name, p, *tops in ROWS
          for n, top in enumerate(tops, 1) if isinstance(top, tuple)]
REFUSALS = [(name, p, n, top) for name, p, *tops in ROWS
            for n, top in enumerate(tops, 1) if isinstance(top, str)]

# (input, n) -> {pipeline: top caps}, for the inputs with two or more
# routes at that n
GROUPS = {}
for _name, _p, _n, _top in SWEEPS:
    GROUPS.setdefault((_name, _n), {})[_p] = _top
GROUPS = {key: routes for key, routes in GROUPS.items() if len(routes) > 1}


def sweep(top):
    return [(d, w) for d in range(top[0] + 1) for w in range(top[1] + 1)]


def ident(case):
    return "%s-%s-n%d" % case[:3]


def compute(name, pipeline, n, d, w):
    kind, route = cli.PIPELINES[pipeline]
    value = LOCAL[name]() if name in LOCAL else cli.load(name, kind, d, w)[1]
    return route(value, d, w, n)


table = functools.cache(compute)


def test_every_builtin_route_has_a_row():
    allowed = {(name, p) for name, kinds in cli.BUILTINS.items()
               for p, (kind, _) in cli.PIPELINES.items() if kind in kinds}
    # poly:2 is a row of the built-in poly:N, m2 of m2
    rows = {(head + ":N" if size else head, p)
            for name, p, *_ in ROWS if name not in LOCAL
            for head, size, _ in [name.partition(":")]}
    assert rows == allowed
    for name, p, _, n2 in ROWS:
        assert (n2 is None) == (cli.PIPELINES[p][0] == "lie"), (name, p)


@pytest.mark.parametrize("name, pipeline, n, top", SWEEPS,
                         ids=map(ident, SWEEPS))
def test_table_restricts_across_caps(name, pipeline, n, top):
    full = table(name, pipeline, n, *top)
    for d, w in sweep(top):
        cut = BettiTable(d, w, {(h, ww): dim
                                for (h, ww), dim in full.entries.items()
                                if h <= d and ww <= w})
        assert table(name, pipeline, n, d, w) == cut, (d, w)


@pytest.mark.parametrize("name, n", GROUPS,
                         ids=["%s-n%d" % key for key in GROUPS])
def test_routes_agree_at_every_cap(name, n):
    routes = GROUPS[(name, n)]
    shared = tuple(map(min, zip(*routes.values())))
    for d, w in sweep(shared):
        tables = {p: table(name, p, n, d, w) for p in routes}
        first = tables[next(iter(routes))]
        assert all(t == first for t in tables.values()), \
            (d, w, {p: t.entries for p, t in tables.items()})


@pytest.mark.parametrize("name, pipeline, n, message", REFUSALS,
                         ids=map(ident, REFUSALS))
def test_route_refuses_its_input(name, pipeline, n, message):
    with pytest.raises(ValueError, match=message):
        compute(name, pipeline, n, 1, 1)
