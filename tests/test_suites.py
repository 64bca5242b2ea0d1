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
