"""Layer tracing from outside the library.

`Tracer.install` wraps the public functions of every mvla module (and a few
hot methods) and patches every module binding of each one, so calls between
modules go through the wrappers too.  A wrapped call pushes a frame; when it
returns, its time minus the time of the wrapped calls made inside it is added
to its layer's self time.  Calls to hot primitives only add to aggregate
counts and times; every other call also records a span
(name, start, end, parent span, query id), kept in memory and written out
once at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("structures", "axioms", "ideals", "polys", "matrices", "linsys",
          "extensions", "vspaces", "fileformat", "cli")

METHODS = {
    # the mask and set conversions only: element-level helpers built on them
    # (sum_set, canon_of, ...) are too cheap to time per call
    "structures": ("Structure", ("mask_of", "set_of", "canon", "add_masks", "mul_masks",
                                 "neg_mask")),
    "polys": ("PolySet", ("members",)),
    "matrices": ("MatrixSet", ("members",)),
}

# Called thousands of times per query: aggregate count and time only.
HOT = {
    "structures": {"Structure." + n for n in METHODS["structures"][1]}
    | {"msum_sets", "mprod_sets", "msum", "mprod"},
    "axioms": {"structure_is", "recheck_witness", "is_full", "is_proto_full"},
    "ideals": {"is_ideal", "principal_ideal"},
    "polys": {"PolySet.members", "padd", "pmul", "padd_sets", "pmul_fold", "psum_members",
              "all_polys", "evaluate", "is_root", "is_effective_root", "divmod_holds"},
    "matrices": {"MatrixSet.members", "madd", "mneg", "mscale", "mmul", "det",
                 "elementary", "is_inverse_pair", "all_matrices"},
    "linsys": {"row_value_sets", "is_solution", "is_weak_solution", "classify_candidate",
               "homogeneous", "find_nontrivial_kernel", "constructive_kernel",
               "iter_back_substitution", "back_substitute", "apply_elementary"},
    "vspaces": {"linear_combinations", "is_subspace", "is_linearly_independent"},
    "fileformat": {"token_to_element", "element_token"},
}

# Inclusive time of the outermost call into any member of a group.
GROUPS = {
    "polys.irreducible_s": {"polys.is_irreducible"},
    "extensions.quotient_s": {"extensions.find_quotient_superfield", "extensions.quotient_pair",
                              "extensions.make_quotient_superfield"},
    "vspaces.build_s": {"vspaces.fn_space", "vspaces.matrix_space", "vspaces.poly_space",
                        "vspaces.extension_space"},
    "vspaces.verify_s": {"vspaces.verify_vspace"},
}


class Tracer:
    def __init__(self, timed=True):
        self.timed = timed             # False: counts only, no times and no spans
        self.stack = [[0.0, -1]]       # frames: [child seconds] or [child seconds, span id]
        self.calls = {}
        self.self_s = {layer: [0.0] for layer in LAYERS + ("bench",)}
        self.counts = {}
        self.group_s = {g: [0, 0.0, 0.0] for g in GROUPS}  # depth, start, total
        self.spans = []
        self.qid = -1

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- hooks on results -------------------------------------------------------------

    def _hooks(self, key):
        c = self.count

        def checked(layer):
            return lambda res: c(f"{layer}.instances_checked", res.checked)

        def quotient_error(exc):
            if type(exc).__name__ == "CongruenceError":
                c("extensions.quotient_tried")

        def quotient_ok(_res):
            c("extensions.quotient_tried")
            c("extensions.quotient_accepted")

        def outcome(constructive_note):
            def hook(res):
                c("linsys.outcomes")
                c("linsys.fallback_outcomes", res.note != constructive_note)
            return hook

        return {
            "polys.PolySet.members": (lambda res: c("polys.box_members", len(res)), None),
            "matrices.MatrixSet.members":
                (lambda res: c("matrices.box_members", len(res)), None),
            "axioms.verify_axioms": (checked("axioms"), None),
            "axioms.check_morphism": (checked("axioms"), None),
            "axioms.verify_multigroup": (checked("axioms"), None),
            "vspaces.verify_vspace": (checked("vspaces"), None),
            "extensions.make_quotient_superfield": (quotient_ok, quotient_error),
            "linsys.scale_system": (lambda res: c("linsys.scaled_branches", len(res)), None),
            "linsys.classify_candidate":
                (lambda res: c("linsys.candidate_hits", res is not None), None),
            "linsys.solve_weak": (outcome(""), None),
            "linsys.find_nontrivial_kernel": (outcome("constructive"), None),
            "matrices.is_inverse_pair": (lambda res: c("matrices.inverse_hits", bool(res)), None),
        }.get(key, (None, None))

    # -- wrappers -------------------------------------------------------------------------

    def _wrap(self, f, layer, name):
        key = f"{layer}.{name}"
        hot = name in HOT.get(layer, ())
        on_result, on_error = self._hooks(key)
        cell = self.calls.setdefault(key, [0])
        if inspect.isgeneratorfunction(f):
            return self._wrap_generator(f, key, layer)
        if not self.timed:
            def counted(*args, **kwargs):
                cell[0] += 1
                try:
                    res = f(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                if on_result is not None:
                    on_result(res)
                return res
            return counted

        stack, perf, layer_self = self.stack, time.perf_counter, self.self_s[layer]
        push, pop = stack.append, stack.pop
        if hot:
            def timed_hot(*args, **kwargs):
                cell[0] += 1
                frame = [0.0]
                push(frame)
                t0 = perf()
                try:
                    res = f(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    pop()
                    layer_self[0] += dt - frame[0]
                    stack[-1][0] += dt
                if on_result is not None:
                    on_result(res)
                return res
            return timed_hot

        spans, tracer = self.spans, self
        group = next((self.group_s[g] for g, keys in GROUPS.items() if key in keys), None)

        def timed_span(*args, **kwargs):
            cell[0] += 1
            parent = next(fr[1] for fr in reversed(stack) if len(fr) > 1)
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            t0 = perf()
            if group is not None:
                if not group[0]:
                    group[1] = t0
                group[0] += 1
            try:
                res = f(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                layer_self[0] += dt - frame[0]
                stack[-1][0] += dt
                spans[frame[1]] = (key, t0, t1, parent, tracer.qid)
                if group is not None:
                    group[0] -= 1
                    if not group[0]:
                        group[2] += t1 - group[1]
            if on_result is not None:
                on_result(res)
            return res
        return timed_span

    def _wrap_generator(self, f, key, layer):
        """Each resumption is timed like a hot call; each item yielded is counted."""
        stack, perf, layer_self = self.stack, time.perf_counter, self.self_s[layer]
        cell, yields = self.calls[key], key + ".yields"
        timed, count = self.timed, self.count

        def generator(*args, **kwargs):
            cell[0] += 1
            it = f(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - t0
                        stack.pop()
                        if timed:
                            layer_self[0] += dt - frame[0]
                            stack[-1][0] += dt
                    count(yields)
                    yield item
            finally:
                it.close()
        return generator

    def install(self, package="mvla"):
        """Wrap the public functions of the package's layer modules in place."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    replace[id(obj)] = self._wrap(obj, layer, name)
            cls_name, methods = METHODS.get(layer, (None, ()))
            cls = getattr(mod, cls_name, None) if cls_name else None
            for meth in methods:
                if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                    setattr(cls, meth, self._wrap(cls.__dict__[meth], layer, f"{cls_name}.{meth}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])

    # -- queries --------------------------------------------------------------------------

    def begin_query(self, qid):
        self.qid = qid
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        return frame, time.perf_counter()

    def end_query(self, ctx, label):
        frame, t0 = ctx
        t1 = time.perf_counter()
        # a timeout that lands between a wrapper's push and its try leaves a frame
        while self.stack[-1] is not frame:
            self.stack.pop()
        self.stack.pop()
        self.self_s["bench"][0] += (t1 - t0) - frame[0]
        self.spans[frame[1]] = ("query:" + label, t0, t1, -1, self.qid)

    def summary(self):
        counts = dict(self.counts)
        counts.update(("calls." + k, v[0]) for k, v in self.calls.items())
        return {"self_s": {k: v[0] for k, v in self.self_s.items()},
                "group_s": {k: v[2] for k, v in self.group_s.items()},
                "counts": dict(sorted(counts.items())),
                "spans": sum(s is not None for s in self.spans)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": [s for s in self.spans if s is not None]}, fh)
