"""Per-layer tracing from outside the library.

``Tracer.install`` wraps each layer's functions at the names their callers
look up, ``Tracer.remove`` puts every patched attribute back.  Each wrapped
call is a span (name, start, end, parent) kept in memory; the polynomial
kernel's ``p_*`` functions are called millions of times, so they are timed and
counted but not kept as spans.  Self time is a call's duration minus the time
of the wrapped calls it made.  A name's inclusive time (``.s``) counts only its
outermost calls, so recursion is not counted twice.
"""

import json
import time
from collections import defaultdict

# (metric, unit): what the traced run reports, in BENCHMARK.json order
LAYER_METRICS = [
    ("kernel.calls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.p_mul.term_products", "count"),
    ("kernel.p_mul.self_s", "s"),
    ("kernel.p_divmod.self_s", "s"),
    ("kernel.p_lead.self_s", "s"),
    ("gcd.gcd_qq.calls", "count"),
    ("gcd.gcd_qq.self_s", "s"),
    ("gcd.trivial_ratio", "ratio"),
    ("gcd.heu_calls", "count"),
    ("gcd.heu_fail_ratio", "ratio"),
    ("gcd.prs_calls", "count"),
    ("exactalg.normalize.calls", "count"),
    ("exactalg.normalize.self_s", "s"),
    ("exactalg.eval_cells.self_s", "s"),
    ("exactalg.shift_cells.self_s", "s"),
    ("exactalg.ring_cache_size", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.s", "s"),
    ("linalg.solve_columns.calls", "count"),
    ("linalg.solve_columns.s", "s"),
    ("linalg.solve_columns.retry_ratio", "ratio"),
    ("gzmod.window_init.s", "s"),
    ("gzmod.extend_family.s", "s"),
    ("gzmod.certify_rank.s", "s"),
    ("gzmod.rank_steps", "count"),
    ("gzmod.family_size", "count"),
    ("gzmod.evaluate.calls", "count"),
    ("gzmod.evaluate.s", "s"),
    ("gzmod.act.calls", "count"),
    ("gzmod.act.s", "s"),
    ("gzmod.act.rhs_s", "s"),
    ("gzmod.gen_image.s", "s"),
    ("gzmod.act_structural.calls", "count"),
    ("gzmod.act_structural.s", "s"),
    ("divdiff.mul_right_fun.s", "s"),
    ("divdiff.conjugated.s", "s"),
    ("divdiff.pair_expand.calls", "count"),
    ("divdiff.pair_cache_hit_ratio", "ratio"),
    ("divdiff.pair_cache_size", "count"),
    ("divdiff.apply_word.calls", "count"),
    ("divdiff.apply_word.s", "s"),
    ("divdiff.generators_ddiff_form.s", "s"),
    ("skewops.matmul.calls", "count"),
    ("skewops.matmul.s", "s"),
    ("skewops.apply.calls", "count"),
    ("skewops.apply.s", "s"),
    ("skewops.invariant_family.s", "s"),
    ("combinat.shortest_coset_reps.s", "s"),
    ("combinat.stable_sorting_perm.calls", "count"),
    ("latwalk.find_path.calls", "count"),
    ("latwalk.find_path.s", "s"),
    ("latwalk.validate_walk.s", "s"),
    ("latwalk.path_steps", "count"),
    ("cli.commands", "count"),
    ("cli.parse.s", "s"),
    ("cli.main.self_s", "s"),
]

# metrics that are exact counts: they must repeat exactly for the same inputs
EXACT = {m for m, unit in LAYER_METRICS if unit == "count"}

KERNEL_OPS = (
    "p_add", "p_neg", "p_sub", "p_mul", "p_mul_term", "p_mul_scalar",
    "p_lead", "p_total_degree", "p_deg_in", "p_divmod", "p_eval_int",
)

MAX_SPANS = 200_000


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.spans_dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.edge_s = defaultdict(float)  # (parent name, name) -> time
        self.counts = defaultdict(int)
        self.root_s = 0.0  # time covered by calls made outside any span
        self._stack = []  # frames: [name, child time, span index]
        self._depth = defaultdict(int)
        self._saved = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name, keep_span, pre=None, post=None):
        stack, spans, depth = self._stack, self.spans, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = -1
            if keep_span:
                if len(spans) < MAX_SPANS:
                    parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                    idx = len(spans)
                    spans.append([name, 0.0, 0.0, parent])
                else:
                    self.spans_dropped += 1
            frame = [name, 0.0, idx]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if not depth[name]:
                    self.incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                    self.edge_s[(stack[-1][0], name)] += dur
                else:
                    self.root_s += dur
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t0 + dur
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, keep_span=True, pre=None, post=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, keep_span, pre, post))
        else:
            new = self._wrap(raw, name, keep_span, pre, post)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced name at each place the library looks it up: where
        a module binds a function at import, that module's binding is wrapped."""
        from ogzkit import _gcd, _kernel, _linalg, cli, divdiff, exactalg, gzmod, latwalk, skewops

        count = self.counts
        P = self._patch

        for op in KERNEL_OPS:
            pre = None
            if op == "p_mul":
                def pre(args):
                    count["term_products"] += len(args[0]) * len(args[1])
            P(_kernel, op, f"kernel.{op}", keep_span=False, pre=pre)
            if op in _gcd.__dict__:
                P(_gcd, op, f"kernel.{op}", keep_span=False, pre=pre)

        def heu_post(args, result):
            if result is None:
                count["heu_fail"] += 1

        def gcd_post(args, result):
            if len(result) == 1 and next(iter(result.items())) == ((0,) * args[2], 1):
                count["gcd_trivial"] += 1

        P(_gcd, "_heu_gcd", "gcd.heu", post=heu_post)
        P(_gcd, "_prs_gcd", "gcd.prs")
        P(exactalg, "gcd_qq", "gcd.gcd_qq", post=gcd_post)
        P(exactalg.RationalFunction, "normalize", "exactalg.normalize")
        P(exactalg.Polynomial, "eval_cells", "exactalg.eval_cells")
        P(exactalg.Polynomial, "shift_cells", "exactalg.shift_cells")

        def solve_post(args, result):
            if result is None:
                count["solve_none"] += 1

        P(_linalg, "rank", "linalg.rank")
        P(_linalg, "solve_columns", "linalg.solve_columns", post=solve_post)

        W = gzmod.ModuleWindow

        def certify_post(args, result):
            count["rank_steps"] += len(args[0].rank_history)
            count["family_size"] += len(args[0].family)

        def act_pre(args):
            if (args[1], args[2]) not in args[0]._act_cache:
                count["act_solved"] += 1

        P(W, "__init__", "gzmod.window_init")
        P(W, "extend_family", "gzmod.extend_family")
        P(W, "certify_rank", "gzmod.certify_rank", post=certify_post)
        P(W, "act", "gzmod.act", pre=act_pre)
        P(W, "gen_image", "gzmod.gen_image")
        P(W, "act_structural", "gzmod.act_structural")
        P(gzmod.Functional, "evaluate", "gzmod.evaluate")

        NH = divdiff.NilHecke

        def pair_pre(args):
            cls, ring, i, p, q = args
            if (ring._key, i, p, q) in cls._PAIR_CACHE:
                count["pair_hits"] += 1

        P(NH, "mul_right_fun", "divdiff.mul_right_fun")
        P(NH, "conjugated", "divdiff.conjugated")
        P(NH, "pair_expand", "divdiff.pair_expand", pre=pair_pre)
        P(gzmod, "apply_word", "divdiff.apply_word")
        P(divdiff, "generators_ddiff_form", "divdiff.generators_ddiff_form")

        P(skewops.SkewOperator, "__matmul__", "skewops.matmul")
        P(skewops.SkewOperator, "apply", "skewops.apply")
        for mod in (skewops, gzmod, cli):
            P(mod, "invariant_family", "skewops.invariant_family")

        P(gzmod, "shortest_coset_reps", "combinat.shortest_coset_reps")
        P(gzmod, "stable_sorting_perm", "combinat.stable_sorting_perm")

        def path_post(args, result):
            count["path_steps"] += len(result) - 1

        P(latwalk, "find_path", "latwalk.find_path", post=path_post)
        P(latwalk, "validate_walk", "latwalk.validate_walk")

        P(cli, "parse_expr", "cli.parse")
        P(cli, "parse_op", "cli.parse")
        P(cli, "main", "cli.main")

    def remove(self):
        """Put back every patched attribute, last patched first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self):
        from ogzkit.divdiff import NilHecke
        from ogzkit.exactalg import Ring

        c, s, inc, n = self.calls, self.self_s, self.incl_s, self.counts
        kernel = [k for k in c if k.startswith("kernel.")]
        m = {
            "kernel.calls": sum(c[k] for k in kernel),
            "kernel.self_s": sum(s[k] for k in kernel),
            "kernel.p_mul.term_products": n["term_products"],
            "gcd.trivial_ratio": _ratio(n["gcd_trivial"], c["gcd.gcd_qq"]),
            "gcd.heu_calls": c["gcd.heu"],
            "gcd.heu_fail_ratio": _ratio(n["heu_fail"], c["gcd.heu"]),
            "gcd.prs_calls": c["gcd.prs"],
            "exactalg.ring_cache_size": len(Ring._CACHE),
            "linalg.solve_columns.retry_ratio": _ratio(n["solve_none"], n["act_solved"]),
            "gzmod.rank_steps": n["rank_steps"],
            "gzmod.family_size": n["family_size"],
            "gzmod.act.rhs_s": self.edge_s[("gzmod.act", "gzmod.evaluate")],
            "divdiff.pair_cache_hit_ratio": _ratio(n["pair_hits"], c["divdiff.pair_expand"]),
            "divdiff.pair_cache_size": len(NilHecke._PAIR_CACHE),
            "latwalk.path_steps": n["path_steps"],
            "cli.commands": c["cli.main"],
        }
        for metric, _ in LAYER_METRICS:
            if metric in m:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                m[metric] = c[span]
            elif kind == "self_s":
                m[metric] = s[span]
            elif kind == "s":
                m[metric] = inc[span]
            else:
                raise KeyError(metric)
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "dropped": self.spans_dropped}, fh)
