"""The four benchmark workloads.

Each workload has a set-up part (imports and fixtures) and a timed part (the
operations and their correctness gates).  ``run_round`` runs one round in the
calling interpreter and returns a plain dict; ``round.py`` runs it in a fresh
interpreter so that the library's caches start cold, as they do for a CLI user.

Inputs come only from the seed: the seed shuffles query orders and draws
offsets, expressions and walk endpoints.  The library receives only those
inputs.  Every operation is checked; an operation fails when it raises,
returns a nonzero exit code, or does not pass its gate.
"""

import contextlib
import hashlib
import io
import itertools
import random
import resource
import time

# Digests of outputs that do not depend on the seed, recorded from the
# library as it stood when the benchmark was defined.  A mismatch fails every
# operation the digest covers, because a digest cannot say which one is wrong.
DIGESTS = {
    ("window_structural", False): "41785081b11dd1cbc32702c0eb1ebda411fb1cb911002b44e78bfe4ef6cf6ada",
    ("window_structural", True): "71eae8f26a393982d0561fa955a9b227649896216da41b4b16541c17890545bd",
    ("cli_batch", False): "75d74f09afea80c985cf98fd73796d216691fb8c908413c92add1a43085db6d9",
    ("cli_batch", True): "b7d2de8fdc797488da9b05b565fe3b1bf714943e0253a4378efc398324424e3e",
}

# Rank histories asserted by the test suite for the (2,1) doubled point at
# radius 2 (tests/test_cli.py); radius 1 is the smoke size.
RANK_HISTORY = {2: [4, 6, 9, 12, 16, 20, 25, 25], 1: [4, 6, 9, 9]}


class Batch:
    """The timed part of one round: latencies, failures and rendered outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.t_first = None
        self.wall_s = None
        self.traced_s = None
        self.lat_ms = []
        self.failed = set()
        self.outputs = {}
        self.errors = []
        self._t0 = None
        self._root0 = 0.0

    def begin(self):
        self.t_first = time.monotonic()
        if self.tracer is not None:
            self._root0 = self.tracer.root_s
        self._t0 = time.perf_counter()

    def end(self):
        self.wall_s = time.perf_counter() - self._t0
        if self.tracer is not None:
            # time of the timed part that some traced call accounts for
            self.traced_s = self.tracer.root_s - self._root0

    def op(self, key, fn):
        """Run one timed operation; an exception fails it and yields None."""
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            self.fail(key, f"{type(exc).__name__}: {exc}")
        self.lat_ms.append((time.perf_counter() - t) * 1000.0)
        return out

    def fail(self, key, why):
        if key not in self.failed:
            self.failed.add(key)
            self.errors.append(f"{key}: {why}")

    def digest(self, keys=None):
        keys = sorted(self.outputs if keys is None else keys, key=repr)
        text = "\n".join(f"{k!r} {self.outputs[k]}" for k in keys)
        return hashlib.sha256(text.encode()).hexdigest()

    def check_digest(self, name, smoke, keys):
        """Compare the digest of ``keys`` with the recorded one."""
        got = self.digest(keys)
        if got != DIGESTS[(name, smoke)]:
            for k in keys:
                self.fail(k, f"output digest {got[:12]} differs from the recorded one")


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _doubled_point(a, b):
    """The (2,1) point x11 = x12 = z1 + a, x21 = z2 + b."""
    from ogzkit import QQ, EvalPoint

    return EvalPoint.make(
        (2, 1), {(1, 1): (1, QQ(a)), (1, 2): (1, QQ(a)), (2, 1): (2, QQ(b))}
    )


def _render_vec(vec):
    return "{" + ", ".join(f"{b}: {vec[b]}" for b in sorted(vec)) + "}"


def _queries(window, functionals):
    """E1 and F1 on interior functionals, every multiplier on all of them."""
    out = []
    mults = window.multiplier_gens()
    for b in functionals:
        orb = window.orbits[window.basis_meta[b][0]]
        if orb.interior:
            out += [(("raising", 1), b), (("lowering", 1), b)]
        out += [(g, b) for g in mults]
    return out


# ---------------------------------------------------------------------------
# window_build


def window_build(seed, smoke, batch):
    """build_basis_B on the doubled point with nonzero offsets drawn from the
    seed; gates on basis size and rank history.  (The zero-offset window is
    the fixture of window_solve, so its build is in that workload's setup_s.)"""
    import ogzkit

    rng = _rng("window_build", seed)
    radius = 1 if smoke else 2
    a, b = rng.choice((1, -1)), rng.choice((1, -1))
    label = f"offset {a},{b}"
    point = _doubled_point(a, b)
    want = RANK_HISTORY[radius]
    batch.begin()
    win = batch.op(label, lambda: ogzkit.build_basis_B(point, radius))
    if win is not None:
        got = (len(win.basis), list(win.rank_history))
        batch.outputs[label] = repr(got)
        if got != (want[-1], want):
            batch.fail(label, f"basis/rank history {got}, expected {(want[-1], want)}")
    batch.end()


# ---------------------------------------------------------------------------
# window_solve


def window_solve(seed, smoke, batch):
    """Both action routes on the radius-2 doubled-point window, compared
    coefficient for coefficient."""
    import ogzkit

    radius = 1 if smoke else 2
    win = ogzkit.build_basis_B(_doubled_point(0, 0), radius)
    queries = _queries(win, range(len(win.basis)))
    # The generator images are shared by every query of a generator.  Over all
    # 93 queries they cost a few per cent; over a subset they would land on
    # whichever query the seed puts first and make one query's latency depend
    # on the order.  So they belong to the fixture, as the window does.
    for gen in dict.fromkeys(g for g, _ in queries):
        for t in range(len(win.family)):
            win.gen_image(gen, t)
    if not smoke:
        # every fifth of the 93 queries, in the same proportions of generator
        # and functional kind; the seed only orders them, so every seed does
        # the same work
        queries = queries[::5]
    _rng("window_solve", seed).shuffle(queries)
    batch.begin()
    for key in queries:
        pair = batch.op(key, lambda: (win.act(*key), win.act_structural(*key)))
        if pair is None:
            continue
        solved, structural = pair
        batch.outputs[key] = _render_vec(solved)
        if solved != structural:
            batch.fail(key, f"routes disagree: {_render_vec(solved)} vs {_render_vec(structural)}")
    batch.end()


# ---------------------------------------------------------------------------
# window_structural


def _mat_mul(A, B, zero):
    n = len(A)
    out = [[zero] * n for _ in range(n)]
    for r in range(n):
        for t in range(n):
            if A[r][t].is_zero():
                continue
            for c in range(n):
                if not B[t][c].is_zero():
                    out[r][c] = out[r][c] + A[r][t] * B[t][c]
    return out


def window_structural(seed, smoke, batch):
    """act_structural on the (3,1) triple point: blocks of 1, 3 and 6 cells,
    non-adjacent pair expansions and conjugation.  No rank certificate."""
    import ogzkit

    radius = 1 if smoke else 2
    point = ogzkit.EvalPoint.make(
        (3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)}
    )
    win = ogzkit.ModuleWindow(point, radius)
    queries = _queries(win, range(len(win.basis)))
    _rng("window_structural", seed).shuffle(queries)
    results = {}
    batch.begin()
    for key in queries:
        vec = batch.op(key, lambda: win.act_structural(*key))
        if vec is not None:
            results[key] = vec
            batch.outputs[key] = _render_vec(vec)
    # multiplier images stay in their block, and (multiplier - eigenvalue)
    # is nilpotent on the block
    zero = ogzkit.RationalFunction.from_any(win.ring, 0)
    for orb in win.orbits:
        block = win.block_indices(orb.index)
        pos = {b: r for r, b in enumerate(block)}
        n = len(block)
        for gen in win.multiplier_gens():
            keys = [(gen, b) for b in block]
            if any(k not in results for k in keys):
                continue
            leaked = [k for k in keys if not set(results[k]) <= pos.keys()]
            for k in leaked:
                batch.fail(k, "multiplier image leaves its block")
            if leaked:
                continue
            chi = ogzkit.gamma_eigenvalue(win.ring, orb.point, gen[1], gen[2])
            N = [[zero] * n for _ in range(n)]
            for c, b in enumerate(block):
                for tgt, val in results[(gen, b)].items():
                    N[pos[tgt]][c] = val
            for r in range(n):
                N[r][r] = N[r][r] - chi
            P = N
            for _ in range(n - 1):
                P = _mat_mul(P, N, zero)
            if any(not v.is_zero() for row in P for v in row):
                for k in keys:
                    batch.fail(k, f"{gen} minus its eigenvalue is not nilpotent on block {orb.index}")
    batch.check_digest("window_structural", smoke, [k for k in queries if k in results])
    batch.end()


# ---------------------------------------------------------------------------
# cli_batch


def _esym_text(cells, d):
    terms = ["*".join(f"x[{i},{j}]" for i, j in combo) for combo in itertools.combinations(cells, d)]
    text = "+".join(terms)
    return text if len(terms) == 1 and d == 1 else f"({text})"


def _invariant_expr(rng, shape):
    """A random row-symmetric polynomial, as expression text and as the list
    of (coefficient, [((row, degree), exponent)]) terms it denotes."""
    factors = [(i, d) for i, s in enumerate(shape, start=1) for d in range(1, s + 1)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([k for k in range(-9, 10) if k])
        picked = rng.sample(factors, rng.randint(1, 2))
        terms.append((c, [(f, rng.randint(1, 2)) for f in picked]))
    pieces = []
    for c, fs in terms:
        body = "*".join(
            _esym_text([(i, j) for j in range(1, shape[i - 1] + 1)], d) + (f"^{e}" if e > 1 else "")
            for (i, d), e in fs
        )
        pieces.append(f"{c}*{body}")
    text = pieces[0] + "".join(p if p.startswith("-") else "+" + p for p in pieces[1:])
    return text, terms


def _apply_expected(shape, op, terms):
    """The image of the invariant under ``op`` by a second route: the
    divided-difference form for E1/F1, a product of polynomials for gamma."""
    from ogzkit import RationalFunction, Ring, elementary_symmetric, generators_ddiff_form

    ring = Ring(shape, 0)
    f = ring.zero()
    for c, fs in terms:
        t = ring.const(c)
        for (i, d), e in fs:
            t = t * elementary_symmetric(ring, i, d) ** e
        f = f + t
    if op.startswith("gamma"):
        i, d = (int(v) for v in op[6:-1].split(","))
        return str(RationalFunction.from_poly(elementary_symmetric(ring, i, d) * f))
    mu = (1,) * shape[0]
    return str(generators_ddiff_form(ring, 1, mu, up=op == "E1").apply(f))


def _cli_commands(rng, smoke):
    """(kind, argv, gate data) for every command of the batch."""
    cmds = []
    relation_shapes = ["2,1"] if smoke else ["3,2,1", "1,2,3,1"]
    for shape in relation_shapes:
        cmds.append(("relations", ["check-relations", "--shape", shape], None))
    ddiff = [("2,1", 1, 2)] if smoke else [("3,2", 1, 3), ("1,2,3", 2, 2)]
    degree = "2" if smoke else "3"
    for shape, row, n in ddiff:
        comps = [c for k in range(1, n + 1) for c in itertools.product(range(1, n + 1), repeat=k) if sum(c) == n]
        for mu in comps:
            for down in ([], ["--down"]):
                argv = ["ddiff-compare", "--shape", shape, "--row", str(row),
                        "--mu", ",".join(map(str, mu)), "--degree", degree] + down
                cmds.append(("ddiff", argv, None))
    for _ in range(4 if smoke else 20):
        shape = rng.choice([(2, 1), (3, 2)])
        ops = ["E1", "F1"] + [f"gamma[{i},{d}]" for i, s in enumerate(shape, start=1) for d in range(1, s + 1)]
        op = rng.choice(ops)
        text, terms = _invariant_expr(rng, shape)
        # --expr=TEXT: argparse reads "--expr -9*..." as a missing value
        argv = ["apply", "--shape", ",".join(map(str, shape)), "--op", op, f"--expr={text}"]
        cmds.append(("apply", argv, (shape, op, terms)))
    top, dim = (2, 4) if smoke else (4, 6)
    for _ in range(10 if smoke else 150):
        start = tuple(rng.randint(0, top) for _ in range(dim))
        target = tuple(rng.randint(0, top) for _ in range(dim))
        argv = ["walk", "--start", ",".join(map(str, start)), "--target", ",".join(map(str, target))]
        cmds.append(("walk", argv, (start, target)))
    return cmds


def _state(s):
    return "(" + ",".join(map(str, s)) + ")"


def _walk_ok(out, start, target):
    lines = out.splitlines()
    if start == target:
        return lines == ["(empty walk)", "steps 0 all_ok yes"]
    arrows = lines[:-1]
    return (
        lines[-1] == f"steps {len(arrows)} all_ok yes"
        and arrows[0].startswith(_state(start) + " -")
        and arrows[-1].endswith("-> " + _state(target))
    )


def _gate_cli(kind, out, data):
    if kind == "relations":
        body = out.splitlines()[1:-1]
        return bool(body) and all(ln.endswith(": ok") for ln in body) and out.rstrip().endswith("failed=0")
    if kind == "ddiff":
        return out.rstrip().endswith("verdict=ok")
    if kind == "apply":
        return out.rstrip("\n") == _apply_expected(*data)
    return _walk_ok(out, *data)


def cli_batch(seed, smoke, batch):
    """Non-window commands through ``cli.main`` in one interpreter."""
    from ogzkit import cli

    cmds = _cli_commands(_rng("cli_batch", seed), smoke)
    _rng("cli_batch-order", seed).shuffle(cmds)

    def call(argv):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, buf.getvalue(), err.getvalue()

    batch.begin()
    for kind, argv, data in cmds:
        key = tuple(argv)
        res = batch.op(key, lambda: call(argv))
        if res is None:
            continue
        rc, out, err = res
        batch.outputs[key] = out
        if rc != 0:
            batch.fail(key, f"exit code {rc}: {err.strip()}")
        elif not _gate_cli(kind, out, data):
            batch.fail(key, f"output fails its gate: {out[-200:]!r}")
    batch.check_digest("cli_batch", smoke, [tuple(a) for k, a, _ in cmds if k in ("relations", "ddiff")])
    batch.end()


# ---------------------------------------------------------------------------

WORKLOADS = {
    "window_build": window_build,
    "window_solve": window_solve,
    "window_structural": window_structural,
    "cli_batch": cli_batch,
}


def run_round(name, seed, smoke=False, tracer=None):
    """One round in this interpreter.  With a tracer, the tracer is installed
    after the import and removed before returning."""
    import ogzkit

    batch = Batch(tracer)
    if tracer is not None:
        tracer.install()
    try:
        WORKLOADS[name](seed, smoke, batch)
    finally:
        if tracer is not None:
            tracer.remove()
    return {
        "workload": name,
        "seed": seed,
        "t_first": batch.t_first,
        "wall_s": batch.wall_s,
        "traced_s": batch.traced_s,
        "lat_ms": batch.lat_ms,
        "attempted": len(batch.lat_ms),
        "failed": len(batch.failed),
        "errors": batch.errors[:20],
        "digest": batch.digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel": ogzkit.KERNEL_NAME,
        "qq": f"{ogzkit.QQ.__module__}.{ogzkit.QQ.__qualname__}",
    }
