import random

import pytest

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
    semilinear_structure,
    shriek_finite,
    trace_kappa_commutes,
    trace_surjective,
    underline,
)
from cartierv.errors import CartierError, RankMismatchError
from cartierv.field_poly import Ring, cartier_trace, twisted_power
from cartierv.groebner import (
    FreeSubmodule,
    QuotientPresentation,
    full_module,
    ideal,
    unit_vector,
    zero_module,
)

from conftest import random_poly


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
        assert s.apply_iter((f,), 3)[0] == twisted_power(u, f, 3)


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


def test_split_unsplit_roundtrip():
    rng = random.Random(17)
    P = Ring(2, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 + y + x)
    for _ in range(10):
        v = tuple(random_poly(rng, ext.base, 4) for _ in range(4))
        assert ext.split(ext.unsplit(v, 2)) == v
        h = random_poly(rng, P, 5)
        assert ext.unsplit(ext.split((h,)), 1)[0] == ext.reduce(h)


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
