import random

import pytest

from cartierv import cartier_mod, groebner
from cartierv.cartier_mod import (
    CartierModule,
    CartierMorphism,
    CartierStructure,
    cokernel_presentation,
    graph_embed,
    is_F_pure,
    is_nilpotent,
    kappa_span,
    kernel_presentation,
    localize_presentation,
    make_extension,
    morphism_check,
    nil_isomorphism_check,
    nilpotence_order,
    pullback_etale,
    pushforward_finite,
    shriek_finite,
    trace_kappa_commutes,
    underline,
)
from cartierv.cli import main, parse_polynomial
from cartierv.errors import (
    CartierError,
    ExponentOverflowError,
    RankMismatchError,
    RingMismatchError,
    StabilizationCapExceededError,
)
from cartierv.field_poly import Ring, cartier_trace
from cartierv.groebner import (
    FreeSubmodule,
    QuotientPresentation,
    full_module,
    ideal,
    unit_vector,
    zero_module,
)
from cartierv.testmod import module_test_submodule

from conftest import (
    apply_iter,
    budget,
    from_sympy,
    intersect_by_elimination,
    random_poly,
    reference_descent,
    reference_test_sum,
    semilinear_structure,
    stable_hull,
    sympy_symbols,
    to_sympy,
    trace_surjective,
    twisted_power,
    unsplit,
)


def test_scalar_structure_matches_trace():
    R = Ring(3, ("x",))
    x = R.var("x")
    k = CartierStructure.scalar(R, x)
    assert k.apply((x,)) == (R.one(),)
    assert k.apply((x * x,)) == (R.zero(),)
    assert k.apply((x ** 4,)) == (x,)
    rng = random.Random(11)
    for _ in range(20):
        u = random_poly(rng, R, 3, nonzero=True)
        f = random_poly(rng, R, 7)
        s = CartierStructure.scalar(R, u)
        assert apply_iter(s, (f,), 3)[0] == twisted_power(u, f, 3)
    # kappa(v) reads the top digit alone: a ring whose p^n digit images are
    # refused as too many still answers it at once
    p = 1048573
    R = Ring(p, ("x", "y"))
    x, y = R.gens()
    s = CartierStructure.scalar(R, x * y + R.constant(2))
    v = (R.monomial((2 * p - 2, p - 2)) + R.constant(3) * R.monomial((p - 1, 3 * p - 1)) + x,)
    assert s.apply(v) == (x + R.constant(6) * y ** 2,)
    assert s.apply(v) == (cartier_trace(s.scalar_twist() * v[0], 1),)
    with pytest.raises(ValueError, match=f"digit basis of size {p}\\^2 is too large"):
        s.digit_images(v)


def test_structure_shape_validation():
    R = Ring(3, ("x",))
    with pytest.raises(RankMismatchError):
        CartierStructure(R, 2, ((R.one(),),))
    with pytest.raises(RankMismatchError):
        CartierStructure(R, 2, ((R.one(), R.zero()),))


def test_kappa_span_membership():
    rng = random.Random(5)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(8):
            u = random_poly(rng, R, 2, nonzero=True)
            s = CartierStructure.scalar(R, u)
            W = ideal(R, *[random_poly(rng, R, 3, nonzero=True) for _ in range(2)])
            img = kappa_span(s, W)
            for w in W.gens:
                r = random_poly(rng, R, 4)
                v = s.apply((r * w[0],))
                assert img.contains_vector(v)


def _brute_images(structure, w):
    """C(U x^a w) for every digit a, by multiplication and trace."""
    ring = structure.ring
    out = []
    for a in ring.digit_monomials(1):
        xa = ring.monomial(a)
        prod = [ring.zero()] * structure.rank
        for i, row in enumerate(structure.U):
            for entry, comp in zip(row, w):
                prod[i] = prod[i] + entry * (xa * comp)
        out.append(tuple(cartier_trace(g, 1) for g in prod))
    return out


def _random_structure(rng, ring, rank):
    """A twist matrix whose entries are zero about a third of the time."""
    U = [[random_poly(rng, ring, 3) if rng.random() < 0.67 else ring.zero()
          for _ in range(rank)] for _ in range(rank)]
    return CartierStructure(ring, rank, U)


def test_kappa_span_generators_match_brute_force():
    rng = random.Random(8)
    for p in (2, 3, 5):
        for names in ((), ("x",), ("x", "y")):
            R = Ring(p, names)
            for rank in (1, 2, 3):
                for _ in range(6):
                    s = _random_structure(rng, R, rank)
                    gens = [tuple(random_poly(rng, R, 5) for _ in range(rank))
                            for _ in range(rng.randint(1, 3))]
                    for w in gens:
                        assert s.digit_images(w) == _brute_images(s, w), (p, names, rank)
                        assert s.apply(w) == _brute_images(s, w)[0], (p, names, rank)
                    brute = [v for w in gens for v in _brute_images(s, w) if any(v)]
                    sub = FreeSubmodule(R, rank, gens)
                    expected = FreeSubmodule(R, rank, brute).minimal_gens()
                    assert kappa_span(s, sub).gens == expected.gens
                    # from packed generators, as inside the orbit loop
                    assert kappa_span(s, sub.minimal_gens()).gens == expected.gens


def test_kappa_span_checks_ring_and_rank():
    R = Ring(3, ("x",))
    s = CartierStructure.scalar(R, R.var("x"))
    with pytest.raises(RankMismatchError):
        kappa_span(s, full_module(R, 2))
    with pytest.raises(RingMismatchError):
        kappa_span(s, full_module(Ring(3, ("y",)), 1))
    # kappa on one vector refuses the same inputs
    S = Ring(3, ("y",))
    for kappa in (s.apply, s.digit_images):
        with pytest.raises(RankMismatchError):
            kappa((R.one(), R.one()))
        with pytest.raises(RankMismatchError):
            kappa(())
        with pytest.raises(RingMismatchError):
            kappa((S.var("y"),))
        with pytest.raises(RingMismatchError):
            kappa((S.zero(),))


def test_a_packed_twist_product_past_the_range_is_refused():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    a = 2**62
    big = R.monomial((a, 0))
    with pytest.raises(ExponentOverflowError, match=f"exponent {2 * a} is above"):
        kappa_span(CartierStructure.scalar(R, big), ideal(R, big + y))
    # an off-diagonal entry carries component 1 to component 0
    s = CartierStructure(R, 2, ((R.zero(), big), (R.one(), R.zero())))
    assert kappa_span(s, FreeSubmodule(R, 2, [(R.zero(), R.monomial((a - 1, 0)))]))
    with pytest.raises(ExponentOverflowError, match=f"exponent {2 * a} is above"):
        kappa_span(s, FreeSubmodule(R, 2, [(R.zero(), big)]))
    # kappa on one vector forms the same packed product U v; C(x^(2^63)) is
    # x^((2^63 - 2) / 3) over F_3, but x^(2^63) itself is refused
    R = Ring(3, ("x",))
    with pytest.raises(ExponentOverflowError, match=f"exponent {2 ** 63} is above"):
        CartierStructure.scalar(R).apply((R.monomial((2 ** 63,)),))


def test_over_ring_builds_no_basis(monkeypatch):
    # the set-up of every classical pair: containment of the zero
    # denominator is answered before any code or basis is made
    runs, codes = [], []
    real, real_code = groebner._buchberger, groebner._code
    monkeypatch.setattr(groebner, "_buchberger", lambda *a: runs.append(a) or real(*a))
    monkeypatch.setattr(groebner, "_code", lambda *a: codes.append(a) or real_code(*a))
    R = Ring(5, ("x", "y"))
    M = CartierModule.over_ring(R, R.var("x"))
    CartierModule.over_ring(R)
    assert M.pres.W.contains(M.pres.N)
    assert runs == [] and codes == []


def test_module_constructor_rejects_unstable_numerator():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    W = FreeSubmodule(R, 2, [(x * y, y ** 2), (R.zero(), x ** 2)])
    U = ((R.one(), y), (R.zero(), x))
    with pytest.raises(CartierError) as err:
        CartierModule(QuotientPresentation(W, zero_module(R, 2)), CartierStructure(R, 2, U))
    # the first failing digit is x^(1, 0), not the first digit (0, 0)
    assert str(err.value) == ("structure does not preserve the numerator: kappa of "
                              "(x*y, y^2) times x^(1, 0) escapes")


def test_morphism_check_matches_brute_force():
    rng = random.Random(9)
    verdicts = set()
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for k in range(12):
            structure = _random_structure(rng, R, 2)
            src = CartierModule.free(R, structure)
            N = FreeSubmodule(R, 2, [tuple(random_poly(rng, R, 2) for _ in range(2))])
            if k % 3 == 0:
                # a constant multiple intertwines a structure with itself
                tgt_structure = structure
                c = R.constant(rng.randint(1, p - 1))
                matrix = ((c, R.zero()), (R.zero(), c))
            else:
                tgt_structure = _random_structure(rng, R, 2)
                matrix = [[random_poly(rng, R, 2) for _ in range(2)] for _ in range(2)]
            tgt = CartierModule(QuotientPresentation(full_module(R, 2), N),
                                tgt_structure, check=False)
            phi = CartierMorphism(src, tgt, matrix)
            expected = (True, "ok")
            for w in src.pres.W.gens:
                for a in R.digit_monomials(1):
                    va = tuple(R.monomial(a) * c for c in w)
                    lhs = phi.apply(src.structure.apply(va))
                    rhs = tgt.structure.apply(phi.apply(va))
                    if not N.contains_vector(tuple(l - r for l, r in zip(lhs, rhs))):
                        expected = (False, f"structures do not intertwine on x^{a} * "
                                    f"({', '.join(f.to_str() for f in w)})")
                        break
                if not expected[0]:
                    break
            assert morphism_check(phi) == expected
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_module_constructor_rejects_unstable_denominator():
    R = Ring(3, ("x",))
    x = R.var("x")
    W = ideal(R, x)
    N = ideal(R, x * x)
    # kappa = C o x^{p-1} sends x^2 * x to x, which escapes (x^2)
    bad = CartierStructure.scalar(R, x ** 2)
    with pytest.raises(CartierError):
        CartierModule(QuotientPresentation(W, N), bad)


def test_quotient_module_nilpotent_in_one_step():
    R = Ring(3, ("x",))
    x = R.var("x")
    W = ideal(R, x)
    N = ideal(R, x * x)
    M = CartierModule(QuotientPresentation(W, N), CartierStructure.scalar(R, x ** 5))
    assert nilpotence_order(M) == 1
    assert is_nilpotent(M)
    assert not is_F_pure(M)


def test_underline_known_values():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x ** 3)
    V, steps = underline(M)
    assert V == ideal(R, x)
    assert steps == 1
    assert not is_F_pure(M)
    plain = CartierModule.over_ring(R)
    V2, steps2 = underline(plain)
    assert V2 == full_module(R, 1)
    assert steps2 == 0
    assert is_F_pure(plain)
    assert not is_nilpotent(plain)


def test_kappa_image_default_is_numerator_image():
    R = Ring(2, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x ** 4)
    img = kappa_span(M.structure, M.pres.W)
    assert img == ideal(R, x ** 2)


def test_zero_variable_two_summands():
    R = Ring(3, ())
    one, zero = R.one(), R.zero()
    U = ((one, zero), (zero, zero))
    M = CartierModule.free(R, CartierStructure(R, 2, U))
    assert not is_nilpotent(M)


def test_morphism_check_known():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R)
    mult_x = CartierMorphism(M, M, ((x,),))
    ok, why = morphism_check(mult_x)
    assert not ok
    # multiplication by c intertwines C and C o c^{p-1}
    Mt = CartierModule.over_ring(R, x ** 2)
    into_twist = CartierMorphism(M, Mt, ((x,),))
    ok, _ = morphism_check(into_twist)
    assert ok
    rep = nil_isomorphism_check(into_twist)
    assert rep.is_morphism
    assert rep.kernel_nilpotent
    assert not rep.cokernel_nilpotent
    assert not rep.is_nil_isomorphism


def test_the_kappa_chain_matches_the_references():
    """underline, nilpotence_order and module_test_submodule, the three reads
    of one kappa-chain, against the descent kappa^e(W) + N and the sum over
    the term chain kappa^e(cW) of tests/conftest.py, on random subquotients
    W/N of stable hulls at ranks 1-2 over F_p[x] and F_p[x, y], p in
    {2, 3, 5}."""
    rng = random.Random(41)
    seen = {"descents": set(), "order": set(), "steps": set(), "sum is W": set()}
    for p in (2, 3, 5):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            for rank in (1, 2):
                for _ in range(10):
                    structure = _random_structure(rng, R, rank)
                    vec = lambda: tuple(random_poly(rng, R, 2, max_terms=2)  # noqa: E731
                                        for _ in range(rank))
                    W = full_module(R, rank)
                    if rng.random() < 0.5:
                        W = stable_hull(structure, FreeSubmodule(R, rank, [vec(), vec()]))
                    N = zero_module(R, rank)
                    if rng.random() < 0.7:
                        g = random_poly(rng, R, 2, max_terms=2, nonzero=True)
                        N = stable_hull(structure, W.scaled(g))
                    M = CartierModule(QuotientPresentation(W, N), structure)
                    c = random_poly(rng, R, 2, max_terms=2, nonzero=True)
                    D, descents, order = reference_descent(M)
                    assert underline(M) == (D, descents), (p, names, rank)
                    assert nilpotence_order(M) == order, (p, names, rank)
                    value, steps = reference_test_sum(M, W.scaled(c))
                    assert module_test_submodule(M, c) == (value, steps), (p, names, rank)
                    seen["descents"].add(min(descents, 2))
                    seen["order"].add(order if order is None else min(order, 2))
                    seen["steps"].add(min(steps, 2))
                    seen["sum is W"].add(value == W)
    assert seen == {"descents": {0, 1, 2}, "order": {None, 0, 1, 2}, "steps": {1, 2},
                    "sum is W": {False, True}}


def test_a_kappa_chain_past_the_cap_exits_4(monkeypatch, capsys):
    """With the cap lowered to one step, each read of a kappa-chain that
    moves raises StabilizationCapExceededError, and the CLI exits 4: on
    C o x^3 over F_3[x] the chain from R is R, (x) and the test sum from
    x^6 R runs (x^3), (x^2), (x); tau at 0 of C o x with f = x runs (x), R."""
    monkeypatch.setattr(cartier_mod, "MAX_IMAGE_ITERATIONS", 1)
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x ** 3)
    for read in (underline, nilpotence_order, lambda M: module_test_submodule(M, x ** 6)):
        with pytest.raises(StabilizationCapExceededError):
            read(M)
    assert main(["tau", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x", "--t", "0"]) == 4
    assert "error [stabilization-cap-exceeded]" in capsys.readouterr().err


def test_underline_inclusion_is_nil_isomorphism():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x ** 3)
    V, _ = underline(M)
    sub = CartierModule(QuotientPresentation(V, zero_module(R, 1)), M.structure)
    incl = CartierMorphism(sub, M, ((R.one(),),))
    rep = nil_isomorphism_check(incl)
    assert rep.is_nil_isomorphism


def test_kernel_cokernel_presentations():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R)
    phi = CartierMorphism(M, M, ((x ** 3,),))
    kern = kernel_presentation(phi)
    assert kern.pres.W == zero_module(R, 1)
    coker = cokernel_presentation(phi)
    assert coker.pres.N == ideal(R, x ** 3)


def test_kernel_agrees_with_elimination():
    # reference: the graph {(phi(w), w) : w in W} meets N_tgt + R^s in the
    # pairs whose first half lies in N_tgt; their second halves plus N_src
    # are the kernel
    rng = random.Random(83)
    nonzero = 0
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for s, r in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2)):
            vec = lambda k: tuple(random_poly(rng, R, 2, max_terms=2, nonzero=True)  # noqa: E731
                                  for _ in range(k))
            matrix = [vec(s) for _ in range(r)]
            g, h = (random_poly(rng, R, 1, nonzero=True) for _ in range(2))
            W = FreeSubmodule(R, s, [vec(s), vec(s)])
            N = FreeSubmodule(R, s, [tuple(g * f for f in W.gens[0])])
            U_src = [vec(s) for _ in range(s)]
            U_tgt = [vec(r) for _ in range(r)]
            src = CartierModule(QuotientPresentation(W, N), CartierStructure(R, s, U_src), check=False)
            free = CartierModule.free(R, CartierStructure(R, r, U_tgt))
            phi_w = [CartierMorphism(src, free, matrix).apply(w) for w in W.gens]
            # plant h*W.gens[-1] in the kernel
            target_N = FreeSubmodule(R, r, [vec(r), tuple(h * f for f in phi_w[-1])])
            tgt = CartierModule(QuotientPresentation(full_module(R, r), target_N),
                                CartierStructure(R, r, U_tgt), check=False)
            kern = kernel_presentation(CartierMorphism(src, tgt, matrix)).pres.W
            graph = FreeSubmodule(R, r + s, [v + w for v, w in zip(phi_w, W.gens)])
            box = FreeSubmodule(R, r + s, [n + (R.zero(),) * s for n in target_N.gens]
                                + [(R.zero(),) * r + unit_vector(R, s, j) for j in range(s)])
            meet = intersect_by_elimination(graph, box)
            assert kern == FreeSubmodule(R, s, [v[r:] for v in meet.gens]).add(N)
            nonzero += not N.contains(kern)
    assert nonzero >= 10


def test_graph_embedding_reduces_to_original_action():
    rng = random.Random(7)
    for p in (2, 3):
        R = Ring(p, ("x",))
        u = random_poly(rng, R, 2, nonzero=True)
        f = random_poly(rng, R, 3, nonzero=True)
        M = CartierModule.over_ring(R, u)
        G = graph_embed(M, f)
        S = G.ring
        assert S.names == ("x", "s")
        f_ext = f.map_ring(S)
        for _ in range(12):
            h = random_poly(rng, S, 4)
            lhs = G.structure.apply((h,))[0].substitute("s", f_ext).map_ring(R)
            rhs = cartier_trace(u * h.substitute("s", f_ext).map_ring(R), 1)
            assert lhs == rhs


def test_graph_embedding_name_collision():
    R = Ring(2, ("x", "s"))
    M = CartierModule.over_ring(R)
    with pytest.raises(ValueError):
        graph_embed(M, R.var("x"))


def test_extension_cusp_basic_data():
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    assert ext.degree == 2
    assert ext.reduce(y ** 2) == x ** 3
    xb = ext.base.var("x")
    assert ext.frob_rows[0] == (ext.base.one(), ext.base.zero())
    assert ext.frob_rows[1] == (ext.base.zero(), xb ** 3)
    assert ext.trace_values == (ext.base.constant(2), ext.base.zero())
    assert ext.discriminant == xb ** 3


def test_extension_artin_schreier_traces():
    P2 = Ring(2, ("x", "y"))
    x, y = P2.gens()
    ext2 = make_extension(P2, y ** 2 + y + x)
    assert ext2.trace_values == (ext2.base.zero(), ext2.base.one())
    assert ext2.discriminant == ext2.base.one()
    assert trace_surjective(ext2)

    P3 = Ring(3, ("x", "y"))
    x, y = P3.gens()
    ext3 = make_extension(P3, y ** 3 - y - x)
    assert ext3.trace_values == (ext3.base.zero(), ext3.base.zero(),
                                 ext3.base.constant(2))
    assert not ext3.discriminant.is_zero()
    assert trace_surjective(ext3)


def _random_covers(rng):
    """20 random monic covers y^d + (lower terms in y) over F_p[x] and
    F_p[x, z], one for each p in {2, 3, 5, 7} and d = 1..5."""
    for i in range(20):
        p, d = (2, 3, 5, 7)[i % 4], 1 + i % 5
        P = Ring(p, (("x", "y"), ("x", "z", "y"))[i // 4 % 2])
        y = P.gens()[-1]
        g = sum((random_poly(rng, P.drop_last(), 2).map_ring(P) * y ** k for k in range(d)),
                y ** d)
        yield make_extension(P, g)


def test_extension_reduce_roundtrip():
    rng = random.Random(13)
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    g = y ** 2 - x ** 3
    ext = make_extension(P, g)
    for _ in range(15):
        h = random_poly(rng, P, 6)
        r = ext.reduce(h)
        assert r.degree_in_var(1) < 2
        diff = h - r
        assert diff.is_zero() or diff.div_exact(g) is not None
    # h of y-degree 3d on random covers: g divides h - reduce(h)
    for ext in _random_covers(random.Random(14)):
        d, y = ext.degree, ext.P.gens()[-1]
        h = sum((random_poly(rng, ext.base, 1, nonzero=k == 3 * d).map_ring(ext.P) * y ** k
                 for k in (0, rng.randrange(1, 3 * d), 3 * d)), ext.P.zero())
        r = ext.reduce(h)
        assert r.degree_in_var(ext.yidx) < d
        assert (h - r).div_exact(ext.g) is not None, (ext, h)


def test_discriminant_matches_sympy():
    # sympy's discriminant of g over Z, reduced mod p: for monic g it is an
    # integer polynomial in the coefficients, so reduction commutes with it
    import sympy

    for ext in _random_covers(random.Random(83)):
        syms = sympy_symbols(ext.P)
        want = sympy.discriminant(to_sympy(ext.g, syms), syms[-1])
        assert ext.discriminant == from_sympy(ext.base, want, syms[:-1]), ext


def test_trace_values_match_newtons_identities():
    # the power sums p_k of the roots of g = y^d + a_{d-1} y^{d-1} + .. + a_0:
    # p_k = -(k a_{d-k} + sum_{i=1}^{min(k-1, d)} a_{d-i} p_{k-i}), the first
    # term only for k <= d
    for ext in _random_covers(random.Random(89)):
        d, zero = ext.degree, ext.base.zero()
        a = {k: c.map_ring(ext.base) for k, c in ext.g.coeffs_in_var(ext.yidx).items()}
        sums = [ext.base.constant(d)]
        for k in range(1, 2 * d - 1):
            s = a.get(d - k, zero).scale(k) if k <= d else zero
            for i in range(1, min(k, d + 1)):
                s = s + a.get(d - i, zero) * sums[k - i]
            sums.append(-s)
        assert ext.trace_values == tuple(sums[:d]), ext
        y = ext.P.gens()[-1]
        assert [ext.trace(y ** k) for k in range(2 * d - 1)] == sums, ext


def test_discriminants_of_large_covers_in_closed_form():
    # disc(y^p - y - x) = (-1)^{p(p+1)/2}, disc(y^n - x) = (-1)^{n(n-1)/2} n^n (-x)^{n-1};
    # the Hankel matrix of y^p - y - x needs row swaps, since Tr(1) = p = 0
    for p in (7, 11, 13):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        with budget(1):
            ext = make_extension(P, y ** p - y - x)
            disc = ext.discriminant
        assert disc == ext.base.constant((-1) ** (p * (p + 1) // 2)), p
    for p, n in ((3, 10), (7, 11), (5, 12)):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        with budget(1):
            ext = make_extension(P, y ** n - x)
            disc = ext.discriminant
        want = (-ext.base.var("x")) ** (n - 1)
        assert disc == want.scale((-1) ** (n * (n - 1) // 2) * n ** n), (p, n)


def test_power_table_matches_horner():
    # power(m), grown one step per entry, against split(y^m), Horner's rule
    # from scratch, for m up to 3d + 2p; the top entry is read first, so the
    # whole table grows in one call and is then read back.  The Frobenius
    # rows are the entries y^{jp}.
    covers = list(_random_covers(random.Random(97)))
    for p, n in ((2, 2), (3, 3), (7, 7), (11, 11), (13, 13), (3, 10), (7, 11), (5, 12)):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        covers.append(make_extension(P, y ** n - x))
        if n == p:
            covers.append(make_extension(P, y ** p - y - x))
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    covers.append(make_extension(P, y ** 2 - x ** 3))
    for ext in covers:
        top = 3 * ext.degree + 2 * ext.P.p
        assert ext.power(top) == ext.split((ext.y_power(top),)), ext
        for m in range(top + 1):
            assert ext.power(m) == ext.split((ext.y_power(m),)), (ext, m)
        assert ext.frob_rows == tuple(ext.split((ext.y_power(j * ext.P.p),))
                                      for j in range(ext.degree)), ext


def test_discriminant_is_computed_on_first_read(monkeypatch):
    # building a cover, its quotient module and both finite functors take no
    # determinant; the first read of the discriminant takes one, the next none
    calls = []
    det = cartier_mod._det
    monkeypatch.setattr(cartier_mod, "_det", lambda matrix: calls.append(matrix) or det(matrix))
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    pushforward_finite(ext, ext.quotient_module())
    shriek_finite(ext, CartierModule.over_ring(ext.base))
    assert not calls
    assert ext.discriminant == ext.discriminant == ext.base.var("x") ** 3
    assert len(calls) == 1


def test_pushforward_of_a_high_y_power_twist_takes_one_step_per_power():
    # the twist g^2 (y^1200 + x) reaches y^402 mod g, and the lifts read the
    # power table, which takes one step per power
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 3 - y - x)
    with budget(0.5):
        push = pushforward_finite(ext, ext.quotient_module(y ** 1200 + x))
    assert push.rank == 3


@pytest.mark.parametrize("p, g, etale", [
    (3, "y^2 - x", False),  # discriminant x
    (3, "y^2 - x^3", False),  # x^3
    (3, "y^3 - x^2", False),  # -27 x^2 = 0
    (3, "y^2 - x - 1", False),  # x + 1: etale off x = -1 only
    (2, "y^2 + y + x", True),  # 1
    (3, "y^3 - y - x", True),  # -1
    (5, "y^5 - y - x", True),
    (7, "y^7 - y - x", True),
])
def test_pullback_needs_an_etale_cover(p, g, etale):
    # over F_3 with f = x, the pullback along y^2 - x, y^2 - x^3 or y^3 - x^2
    # would jump at 1/2 or 1/3 as well as at the base's 1 and 2
    P = Ring(p, ("x", "y"))
    ext = make_extension(P, parse_polynomial(g, P))
    M = CartierModule.over_ring(ext.base)
    if not etale:
        with pytest.raises(CartierError, match="not etale"):
            pullback_etale(ext, M)
        return
    pull = pullback_etale(ext, M)
    assert pull.pres.N == ideal(P, ext.g)
    assert pull.structure.scalar_twist() == ext.g ** (p - 1)


def test_split_unsplit_roundtrip():
    rng = random.Random(17)
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    for _ in range(10):
        v = tuple(random_poly(rng, ext.base, 4) for _ in range(4))
        assert ext.split(unsplit(ext, v, 2)) == v
        h = random_poly(rng, P, 5)
        assert unsplit(ext, ext.split((h,)), 1)[0] == ext.reduce(h)


def test_trace_kappa_commutes_artin_schreier():
    rng = random.Random(19)
    for p, gexp in ((2, None), (3, None)):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        ext = make_extension(P, y ** p - y - x)
        samples = [random_poly(rng, P, 5) for _ in range(25)]
        assert trace_kappa_commutes(ext, samples)
        u = ext.base.var("x")
        assert trace_kappa_commutes(ext, samples, u=u)


def test_trace_kappa_known_sample():
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 3 - y - x)
    s = x ** 2 * y ** 2
    assert ext.trace(s) == (ext.base.var("x") ** 2).scale(2)
    kS = ext.quotient_structure()
    lhs = ext.trace(ext.reduce(kS.apply((s,))[0]))
    rhs = cartier_trace(ext.trace(s), 1)
    assert lhs == rhs == ext.base.constant(2)


def test_shriek_cusp_not_F_pure():
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    M = CartierModule.over_ring(ext.base)
    sh = shriek_finite(ext, M)
    assert sh.rank == 2
    xb = ext.base.var("x")
    assert sh.structure.U[0][0] == ext.base.one()
    assert sh.structure.U[1][1] == xb ** 3
    assert sh.structure.U[0][1].is_zero() and sh.structure.U[1][0].is_zero()
    V, _ = underline(sh)
    expected = FreeSubmodule(ext.base, 2, [
        unit_vector(ext.base, 2, 0),
        unit_vector(ext.base, 2, 1, xb),
    ])
    assert V == expected
    assert not is_F_pure(sh)
    # the hom sending 1 -> 0, y -> 1 is not in the image-stable part
    assert not V.contains_vector(unit_vector(ext.base, 2, 1))
    assert unit_vector(ext.base, 2, 0)[:1] == (ext.base.one(),)


def test_shriek_artin_schreier_F_pure():
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    sh = shriek_finite(ext, CartierModule.over_ring(ext.base))
    assert is_F_pure(sh)


def test_semilinear_reconstruction_recovers_twist():
    rng = random.Random(23)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        u = random_poly(rng, R, 3, nonzero=True)
        s = CartierStructure.scalar(R, u)
        rebuilt = semilinear_structure(R, 1, s.apply)
        assert rebuilt.U == s.U


def test_semilinear_reconstruction_rejects_linear_map():
    R = Ring(2, ("x",))
    with pytest.raises(CartierError):
        semilinear_structure(R, 1, lambda v: v)


def test_pushforward_artin_schreier_structure():
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    M = ext.quotient_module()
    push = pushforward_finite(ext, M)
    assert push.rank == 2
    one, zero = ext.base.one(), ext.base.zero()
    assert push.structure.apply((one, zero)) == (zero, zero)
    assert push.structure.apply((zero, one)) == (one, zero)
    assert is_F_pure(push)


def _pushforward_modules(ext):
    """The quotient module; the quotient with the twist y^(p d) + x, whose
    kappa reaches y^d, the first y-power with coordinates mod g that are not
    constants; and W = P^2 over N = g P^2 with U = g^(p-1) times entries in
    y, stable since kappa(g v) = g kappa(v)."""
    P, p, d = ext.P, ext.P.p, ext.degree
    x, y = P.var("x"), P.var("y")
    gp = ext.g ** (p - 1)
    U = ((gp * y, gp), (gp * (y ** 2 + x), gp * y ** (d + 1)))
    rank2 = CartierModule(QuotientPresentation(full_module(P, 2), full_module(P, 2).scaled(ext.g)),
                          CartierStructure(P, 2, U))
    return ext.quotient_module(), ext.quotient_module(y ** (p * d) + x), rank2


def test_pushforward_twist_matches_the_reconstruction():
    # the closed-form twist against the one the reference rebuilds from the
    # transported action v -> split(reduce(kappa_M(unsplit(v))))
    for p in (2, 3, 5, 7):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        covers = [(P, g) for g in (y ** 2 - x, y ** 3 - x, y ** 4 - x, y ** p - y - x,
                                   y ** 2 - x ** 3, y ** 3 - y - x, y ** 2 + x * y + x)]
        P3 = Ring(p, ("x", "z", "y"))
        x, z, y = P3.gens()
        covers.append((P3, y ** 2 - x * z))
        for ring, g in covers:
            ext = make_extension(ring, g)
            for M in _pushforward_modules(ext):
                r = M.rank

                def action(v):
                    return ext.split(tuple(ext.reduce(c) for c in
                                           M.structure.apply(unsplit(ext, v, r))))
                rebuilt = semilinear_structure(ext.base, ext.degree * r, action)
                assert pushforward_finite(ext, M).structure.U == rebuilt.U, (p, g, r)


def test_pushforward_requires_annihilator():
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    M = CartierModule.over_ring(P)
    with pytest.raises(CartierError):
        pushforward_finite(ext, M)


def test_pushforward_matches_trace_on_cusp():
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    push = pushforward_finite(ext, ext.quotient_module())
    assert not is_F_pure(push)


def test_pullback_etale_of_plain_structure():
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    M = CartierModule.over_ring(ext.base)
    up = pullback_etale(ext, M)
    assert up.structure.scalar_twist() == (y ** 2 + y + x)
    assert up.pres.N == ideal(P, y ** 2 + y + x)


def test_localize_presentation_saturates():
    R = Ring(3, ("x",))
    x = R.var("x")
    u = x ** 4 * (x + R.one()) ** 2
    N = ideal(R, x ** 2 * (x + R.one()))
    M = CartierModule(QuotientPresentation(full_module(R, 1), N),
                      CartierStructure.scalar(R, u))
    loc = localize_presentation(M, x + R.one())
    assert loc.pres.N == ideal(R, x ** 2)
    assert loc.pres.W == full_module(R, 1)


def test_localize_rejects_zero():
    R = Ring(3, ("x",))
    M = CartierModule.over_ring(R)
    with pytest.raises(ValueError):
        localize_presentation(M, R.zero())
