"""Spans and counts at the boundaries between cartierv's modules.

`install()` wraps the functions and methods each module offers the module
above it (field_poly -> groebner -> frobenius/cartier_mod -> testmod ->
vfilt -> cli).  A plain function is replaced at every binding site: each
`cartierv*` module global that is the original object, so calls through
`cartierv.tau`, `vfilt.tau`, `suites.tau` and testmod's own globals are
all seen.  Methods are replaced on their class.

Each wrapped call records a span (query, id, parent id, name, start, end)
in memory; `dump()` writes them out once the pass is over.  Self time is a
span's duration minus the durations of its direct child spans, tracked on
a stack as calls return.  The field_poly layer is hot (hundreds of
thousands of calls a pass), so its calls are aggregated but not kept as
individual spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, tags).  An attribute "Class.method" is a
# method.  Tags group names for inclusive-time and call-count metrics; an
# inclusive time counts only the outermost span carrying the tag.
TARGETS = (
    ("cli", "main", "cli.main", ()),
    ("vfilt", "compute_vfiltration", "vfilt.compute_vfiltration", ()),
    ("vfilt", "verify_axioms", "vfilt.verify_axioms", ()),
    ("vfilt", "gr_piece", "vfilt.gr_piece", ()),
    ("vfilt", "gr_range", "vfilt.gr_range", ()),
    ("vfilt", "gr_is_crystal_zero", "vfilt.gr_is_crystal_zero", ()),
    ("vfilt", "compare_with_ishriek", "vfilt.compare_with_ishriek", ()),
    ("vfilt", "mu_f_check", "vfilt.mu_f_check", ()),
    ("testmod", "tau", "testmod.tau", ()),
    ("testmod", "tau_left_limit", "testmod.tau_left_limit", ()),
    ("testmod", "jumping_numbers", "testmod.jumping_numbers", ()),
    ("testmod", "fpt", "testmod.fpt", ()),
    ("testmod", "nu_interval", "testmod.nu_interval", ()),
    ("testmod", "is_F_regular", "testmod.is_F_regular", ()),
    ("testmod", "module_test_submodule", "testmod.module_test_submodule", ()),
    ("testmod", "is_regular_element", "testmod.is_regular_element", ("t_independent",)),
    ("testmod", "suggest_test_element", "testmod.suggest_test_element", ("t_independent",)),
    ("testmod", "module_test_submodule_from", "testmod.module_test_submodule_from",
     ("t_independent",)),
    ("cartier_mod", "underline", "cartier_mod.underline", ("t_independent",)),
    ("cartier_mod", "kappa_span", "cartier_mod.kappa_span", ()),
    ("cartier_mod", "is_F_pure", "cartier_mod.is_F_pure", ()),
    ("cartier_mod", "nilpotence_order", "cartier_mod.nilpotence_order", ()),
    ("cartier_mod", "morphism_check", "cartier_mod.morphism_check", ()),
    ("cartier_mod", "kernel_presentation", "cartier_mod.kernel_presentation", ()),
    ("cartier_mod", "pushforward_submodule", "cartier_mod.pushforward_submodule", ()),
    ("cartier_mod", "reduce_from_graph", "cartier_mod.reduce_from_graph", ()),
    ("cartier_mod", "trace_kappa_commutes", "cartier_mod.trace_kappa_commutes", ()),
    ("cartier_mod", "CartierModule.__init__", "cartier_mod.CartierModule", ()),
    ("cartier_mod", "make_extension", "cartier_mod.make_extension", ("functors",)),
    ("cartier_mod", "pushforward_finite", "cartier_mod.pushforward_finite", ("functors",)),
    ("cartier_mod", "shriek_finite", "cartier_mod.shriek_finite", ("functors",)),
    ("cartier_mod", "pullback_etale", "cartier_mod.pullback_etale", ("functors",)),
    ("cartier_mod", "graph_embed", "cartier_mod.graph_embed", ("functors",)),
    ("cartier_mod", "localize_presentation", "cartier_mod.localize_presentation",
     ("functors",)),
    ("frobenius", "scaled_root", "frobenius.scaled_root", ()),
    ("frobenius", "frobenius_root", "frobenius.frobenius_root", ()),
    ("frobenius", "bracket_power", "frobenius.bracket_power", ()),
    ("groebner", "FreeSubmodule._basis", "groebner.basis", ()),
    ("groebner", "FreeSubmodule.normal_form", "groebner.normal_form", ()),
    ("groebner", "FreeSubmodule.__init__", "groebner.FreeSubmodule", ()),
    ("groebner", "FreeSubmodule.intersect", "groebner.intersect", ("elim",)),
    ("groebner", "FreeSubmodule.colon_element", "groebner.colon_element", ("elim",)),
    ("groebner", "FreeSubmodule.saturate_element", "groebner.saturate_element", ("elim",)),
    ("groebner", "eliminate", "groebner.eliminate", ("elim",)),
    ("groebner", "syzygies", "groebner.syzygies", ("elim",)),
    ("groebner", "preimage", "groebner.preimage", ("elim",)),
    ("field_poly", "Poly.__mul__", "field_poly.mul", ()),
    ("field_poly", "Poly.__add__", "field_poly.add", ()),
    ("field_poly", "Poly.__sub__", "field_poly.sub", ()),
    ("field_poly", "Poly.__neg__", "field_poly.neg", ()),
    ("field_poly", "Poly.__pow__", "field_poly.pow", ()),
    ("field_poly", "Poly.scale", "field_poly.scale", ()),
    ("field_poly", "Poly.mul_monomial", "field_poly.mul_monomial", ()),
    ("field_poly", "Poly.frobenius_power", "field_poly.frobenius_power", ()),
    ("field_poly", "Poly.div_exact", "field_poly.div_exact", ()),
    ("field_poly", "Poly.map_ring", "field_poly.map_ring", ()),
    ("field_poly", "Poly.substitute", "field_poly.substitute", ()),
    ("field_poly", "cartier_trace", "field_poly.cartier_trace", ()),
    ("field_poly", "frobenius_digits", "field_poly.frobenius_digits", ()),
)

HOT_LAYERS = ("field_poly",)


class Tracer:
    def __init__(self):
        self.query = -1  # -1: set-up, before the first query
        self.spans: list[tuple] = []
        self.next_id = 1
        # frame: [span id, child time]; the root frame collects top-level time
        self.stack: list[list] = [[0, 0.0]]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.extra: Counter = Counter()
        self.tau_keys: set = set()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, name: str, tags: tuple[str, ...], on_enter=None):
        tracer = self
        keep = name.split(".", 1)[0] not in HOT_LAYERS
        keys = (name,) + tags

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            stack = tracer.stack
            active = tracer.active
            outer = [k for k in keys if not active[k]]
            for k in keys:
                active[k] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                for k in keys:
                    active[k] -= 1
                for k in outer:
                    tracer.incl_s[k] += dur
                tracer.calls[name] += 1
                for k in tags:
                    tracer.calls[k] += 1
                tracer.self_s[name] += dur - frame[1]
                if keep:
                    tracer.spans.append((tracer.query, sid, parent[0], name, start, end))

        return functools.update_wrapper(traced, fn)

    # -- hooks that need the call's arguments ------------------------------------

    def _on_tau(self, args, kwargs):
        M, f, t = args[:3]
        c = args[3] if len(args) > 3 else kwargs.get("c")
        convention = args[4] if len(args) > 4 else kwargs.get("convention", "ceil_pe")
        self.tau_keys.add((repr(M.ring), _sub_key(M.pres.W), _sub_key(M.pres.N),
                           tuple(tuple(e.to_str() for e in row) for row in M.structure.U),
                           f.to_str(), None if c is None else c.to_str(),
                           str(t), convention))
        if self.active["testmod.jumping_numbers"]:
            self.extra["jumping_numbers.tau_calls"] += 1
        if self.active["testmod.fpt"]:
            self.extra["fpt.tau_calls"] += 1

    def _on_basis(self, args, kwargs):
        sub = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        sig = order.signature() if order is not None else ("grevlex", ())
        self.extra["basis.requests"] += 1
        if sig not in sub._gb:
            self.extra["basis.runs"] += 1

    def install(self):
        """Wrap every target at every binding site and return how many sites
        were patched.  Raises if an original is still reachable."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cartierv" or name.startswith("cartierv.")}
        hooks = {"testmod.tau": self._on_tau, "groebner.basis": self._on_basis}
        originals = []
        patched = 0
        for mod_name, attr, name, tags in TARGETS:
            home = modules[f"cartierv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(orig, name, tags, hooks.get(name)))
                originals.append(orig)
                patched += 1
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, name, tags, hooks.get(name))
            originals.append(orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        patched += 1
        for mod in modules.values():
            for key, value in vars(mod).items():
                if any(value is o for o in originals):
                    raise RuntimeError(f"unpatched binding {mod.__name__}.{key}")
        return patched

    # -- results ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self) -> dict:
        calls = self.calls
        tau_calls = calls["testmod.tau"]
        requests = self.extra["basis.requests"]
        runs = self.extra["basis.runs"]
        jn = calls["testmod.jumping_numbers"]
        fp = calls["testmod.fpt"]
        return {
            "cli.self_s": self.self_s["cli.main"],
            "vfilt.compute_vfiltration.s": self.incl_s["vfilt.compute_vfiltration"],
            "vfilt.verify_axioms.s": self.incl_s["vfilt.verify_axioms"],
            "vfilt.self_s": self.layer_self("vfilt"),
            "testmod.tau.calls": tau_calls,
            "testmod.tau.s": self.incl_s["testmod.tau"],
            "testmod.tau.distinct_frac": len(self.tau_keys) / tau_calls if tau_calls else 0.0,
            "testmod.tau_left_limit.calls": calls["testmod.tau_left_limit"],
            "testmod.jumping_numbers.tau_calls":
                self.extra["jumping_numbers.tau_calls"] / jn if jn else 0.0,
            "testmod.fpt.tau_calls": self.extra["fpt.tau_calls"] / fp if fp else 0.0,
            "testmod.t_independent.calls": calls["t_independent"],
            "testmod.self_s": self.layer_self("testmod"),
            "cartier_mod.kappa_span.calls": calls["cartier_mod.kappa_span"],
            "cartier_mod.kappa_span.self_s": self.self_s["cartier_mod.kappa_span"],
            "cartier_mod.functors.s": self.incl_s["functors"],
            "cartier_mod.self_s": self.layer_self("cartier_mod"),
            "frobenius.scaled_root.calls": calls["frobenius.scaled_root"],
            "frobenius.self_s": self.layer_self("frobenius"),
            "groebner.basis.runs": runs,
            "groebner.basis.reuse_frac": (requests - runs) / requests if requests else 0.0,
            "groebner.basis.self_s": self.self_s["groebner.basis"],
            "groebner.normal_form.calls": calls["groebner.normal_form"],
            "groebner.elim.s": self.incl_s["elim"],
            "groebner.self_s": self.layer_self("groebner"),
            "field_poly.cartier_trace.calls": calls["field_poly.cartier_trace"],
            "field_poly.mul.calls": calls["field_poly.mul"],
            "field_poly.self_s": self.layer_self("field_poly"),
        }

    def top_level_queries(self) -> int:
        """Distinct queries that opened at least one span at the top level."""
        return len({q for q, _, parent, *_ in self.spans if parent == 0 and q >= 0})

    def dump(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _sub_key(sub) -> tuple:
    return tuple(tuple(e.to_str() for e in v) for v in sub.gens)
