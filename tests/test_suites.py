import pytest

from cartierv.suites import REPROS, SUITES, run_repro, run_suites
from cartierv.testmod import Pair


def test_all_suites_small_counts():
    counts = {"prop32": 6, "lemma31": 6, "roots": 10, "prop38": 4,
              "skoda": 2, "lemma72": 10}
    for name, cases in counts.items():
        (result,) = run_suites([name], seed=0, cases=cases)
        assert result.ok, result.failures
        assert result.cases == cases


def test_suites_deterministic():
    first = run_suites(["prop32", "roots"], seed=3, cases=5)
    second = run_suites(["prop32", "roots"], seed=3, cases=5)
    assert [(r.name, r.cases, r.failures) for r in first] == \
           [(r.name, r.cases, r.failures) for r in second]


def test_run_suites_default_order():
    results = run_suites(cases=2)
    assert [r.name for r in results] == list(SUITES)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suites(["nosuch"])
    with pytest.raises(ValueError):
        run_repro("nosuch")


@pytest.mark.parametrize("name", sorted(REPROS))
def test_repro_scenarios(name):
    result = run_repro(name)
    assert result.scenario == name
    assert result.ok, [(c.name, c.detail) for c in result.checks if not c.ok]
    assert all(check.name for check in result.checks)


# (module, f, c) pairs each scenario asks tau of: one Pair serves each
REPRO_PAIRS = {"ex712": 3, "ex621": 2, "cor79": 4, "prop38": 4, "thm75": 4, "lemma62": 4}


def pairs_built(monkeypatch) -> list:
    """Record the (module, f, c) of every `Pair` built; the list keeps each
    module alive, so no two of them share an id."""
    built = []
    real = Pair.__init__

    def init(self, M, f, c=None, e_cap=None):
        built.append((M, f, c))
        real(self, M, f, c, e_cap)
    monkeypatch.setattr(Pair, "__init__", init)
    return built


@pytest.mark.parametrize("name", sorted(REPROS))
def test_repro_builds_one_pair_per_pair(monkeypatch, name):
    built = pairs_built(monkeypatch)
    assert run_repro(name).ok
    keys = [(id(M), f, c) for M, f, c in built]
    assert len(keys) == len(set(keys)) == REPRO_PAIRS[name]


@pytest.mark.parametrize("name", ["prop32", "lemma31", "prop38"])
def test_check_suites_solve_each_tau_on_a_fresh_pair(monkeypatch, name):
    # each of these compares two solves, which must not share memos
    built, asked = pairs_built(monkeypatch), []
    real = Pair.tau

    def tau(self, t, convention="ceil_pe"):
        asked.append(self)
        return real(self, t, convention)
    monkeypatch.setattr(Pair, "tau", tau)
    (result,) = run_suites([name], seed=0, cases=6)
    assert result.ok, result.failures
    assert len(asked) == len(built) == len({id(pair) for pair in asked}) >= 12


# Buchberger runs and `_reduce` calls of each repro scenario, and of
# kappa_span of the twisted line C o x over F_3[x, y] on an ideal whose
# root has a constant digit: the Groebner work that stopping at the whole
# module saves is pinned, so that it cannot come back unnoticed
GROEBNER_WORK = {"cor79": (56, 0), "ex621": (25, 70), "ex712": (76, 91), "lemma62": (63, 212),
                 "prop38": (47, 124), "thm75": (69, 127), "span": (1, 1)}


def test_groebner_work_is_pinned(monkeypatch):
    from collections import Counter

    from cartierv import groebner
    from cartierv.cartier_mod import CartierModule, kappa_span
    from cartierv.field_poly import Ring
    from cartierv.groebner import ideal

    counts = Counter()
    real_run, real_reduce = groebner._buchberger, groebner._reduce
    monkeypatch.setattr(groebner, "_buchberger",
                        lambda *a: counts.update(["runs"]) or real_run(*a))
    monkeypatch.setattr(groebner, "_reduce",
                        lambda *a: counts.update(["reductions"]) or real_reduce(*a))
    work = {}
    for name in sorted(REPROS):
        counts.clear()
        assert run_repro(name).ok
        work[name] = (counts["runs"], counts["reductions"])
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    counts.clear()
    # x (x y^2 + x^4 y + y^5) has the digit 1 at x^2 y^2
    root = kappa_span(CartierModule.over_ring(R, x).structure,
                      ideal(R, x * y ** 2 + x ** 4 * y + y ** 5, x ** 3 * y ** 3 + x ** 2))
    assert root.gens == ((R.one(),),)
    work["span"] = (counts["runs"], counts["reductions"])
    assert work == GROEBNER_WORK
