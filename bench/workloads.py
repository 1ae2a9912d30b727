"""Seeded inputs, timed operations and answer checks for each workload.

Input generators use only their own integer arithmetic (continued
fractions, Mobius words, random graphs) and never call ``fareyulfp``, so
generating inputs cannot warm the caches under test.  Each workload turns
its generated inputs into program arguments in ``prepare`` (part of
set-up), runs one operation per ``run`` call (the timed part), and checks
the answers in ``check`` (outside the timed region).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import sys
from collections import Counter, deque
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
LADDER_DIGESTS = BENCH_DIR / "ladder_digests.json"
LADDER_DIGEST_OPS = 40  # ops per seed covered by the recorded digest


# ---------------------------------------------------------------------------
# Integer arithmetic shared by the generators and the checkers.


def canon(p: int, q: int) -> tuple[int, int]:
    """Reduced (p, q) with q >= 0; (1, 0) is infinity."""
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return (1, 0)
    g = math.gcd(p, q)
    return (p // g, q // g)


def cf_value(terms: list[int]) -> tuple[int, int]:
    """The value of the continued fraction [terms[0]; terms[1], ...]."""
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return canon(h, k)


def mobius_word(rng: random.Random, letters: int, shift: int) -> tuple[int, int, int, int]:
    """Product of random upper and lower shears, as a matrix (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(letters):
        n = rng.choice([s for s in range(-shift, shift + 1) if s])
        if rng.random() < 0.5:
            a, b, c, d = a, a * n + b, c, c * n + d
        else:
            a, b, c, d = a + b * n, b, c + d * n, d
    return (a, b, c, d)


def act(m: tuple[int, int, int, int], x: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = m
    return canon(a * x[0] + b * x[1], c * x[0] + d * x[1])


def text(x: tuple[int, int]) -> str:
    return f"{x[0]}/{x[1]}"


def parse(s: str) -> tuple[int, int]:
    p, q = s.split("/")
    return canon(int(p), int(q))


def twist_floor(core: tuple[int, int], y: tuple[int, int], shift: int) -> int:
    """Floor of y's twist coordinate about core, in units of ``shift``.

    The canonical normalizer sends core p/q to 1/0 by (v, -u, -q, p) with
    v = p^-1 mod q, as documented for ``normalizer_to_infinity``.
    """
    p, q = core
    if q == 0:
        tp, tq = y
    else:
        v = pow(p, -1, q)
        u = (p * v - 1) // q
        tp, tq = canon(v * y[0] - u * y[1], -q * y[0] + p * y[1])
    return tp // (tq * shift)


def annular_gap(core, y, z, shift: int) -> int:
    """The twist-model distance between the projections of y and z."""
    if y == z:
        return 1
    return abs(twist_floor(core, y, shift) - twist_floor(core, z, shift)) + 2


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lru_caches(module) -> list:
    """Every lru_cache defined at the top level of ``module``."""
    return [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# ladder: deep distinct targets, the continued-fraction kernel.


class Ladder:
    """distance plus all geodesics on distinct deep Mobius-transported pairs.

    Three targets in five are 8-16 partial quotients in 1..3 (many short
    geodesics), two in five are one or two quotients in 20..300 (long
    Stern-Brocot descents).  The split is 3:2 so that the median falls
    inside the cheap family rather than in the gap between the two
    families, where it moved by 20 % from seed to seed.  No two inputs
    share the image of 1/0 or the
    target class modulo integer shifts and sign, so no input repeats a
    normalized chart target of another and the caches only see reuse
    inside one operation.
    """

    name = "ladder"
    # 72 cycles of LONG_SLOTS: 24 rounds of the nine long term counts and
    # 18 blocks of eight short fractions, so every stratum is complete.
    pass_ops = 360
    LONG_SLOTS = (True, False, True, False, True)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        seen_targets: set[tuple[int, int]] = set()
        seen_starts: set[tuple[int, int]] = set()
        self.inputs = []
        self.seed = seed
        long_terms = deque()
        short_terms = deque()
        while len(self.inputs) < self.pass_ops:
            # Cost grows steeply with the quotient sum, so draws come in
            # stratified blocks: long term counts cycle through 8..16, and
            # each block of short fractions spreads its quotient sums over
            # their whole distribution.
            if not long_terms:
                long_terms.extend(rng.sample(range(8, 17), 9))
            if not short_terms:
                short_terms.extend(self._short_block(rng))
            is_long = self.LONG_SLOTS[len(self.inputs) % len(self.LONG_SLOTS)]
            if is_long:
                terms = [rng.randint(1, 3) for _ in range(long_terms[0])]
            else:
                terms = short_terms[0](rng)
            y = cf_value([rng.randint(-3, 3)] + terms)
            word = mobius_word(rng, 6, 5)
            start = act(word, (1, 0))
            target_class = (y[1], min(y[0] % y[1], -y[0] % y[1]))
            if target_class in seen_targets or start in seen_starts:
                continue  # redraw within the same stratum
            (long_terms if is_long else short_terms).popleft()
            seen_targets.add(target_class)
            seen_starts.add(start)
            self.inputs.append((start, act(word, y), y, word, terms))

    @staticmethod
    def _short_block(rng: random.Random) -> list:
        """Eight draws of one or two quotients in 20..300, stratified by sum.

        Two of the eight are single quotients, one from each half of the
        range.  The six pairs are uniform on the square: the sum comes from
        one sixth of the quantiles of the sum of two uniforms each, then
        the split is uniform given the sum.
        """
        lo, hi = 20, 300
        width = hi - lo

        def single(j):
            return lambda r: [r.randint(lo + j * width // 2, lo + (j + 1) * width // 2)]

        def pair(j):
            def draw(r):
                u = (j + r.random()) / 6
                x = width * math.sqrt(2 * u) if u <= 0.5 else 2 * width - width * math.sqrt(2 * (1 - u))
                total = 2 * lo + round(x)
                a = r.randint(max(lo, total - hi), min(hi, total - lo))
                return [a, total - a]
            return draw

        block = [single(0), single(1)] + [pair(j) for j in range(6)]
        rng.shuffle(block)
        return block

    def properties(self) -> dict:
        used = [terms for *_, terms in self.inputs]
        return {
            "input.ladder.mean_terms": statistics.fmean(len(t) for t in used),
            "input.ladder.mean_quotient_sum": statistics.fmean(sum(t) for t in used),
        }

    def prepare(self, api) -> None:
        Slope = api.farey.Slope
        self.api = api
        self.pairs = [(Slope(*x), Slope(*y)) for x, y, *_ in self.inputs]
        self.distance = api.call("farey.distance")
        self.geodesics = api.call("farey.geodesics")

    def run(self, i: int):
        x, y = self.pairs[i]
        return self.distance(x, y), self.geodesics(x, y)

    def summarize(self, i: int, result):
        d, found = result
        union = {(v.p, v.q) for g in found for v in g.vertices}
        return (d, len(found), sorted(union))

    def check(self, items) -> list[tuple]:
        """Closed forms, Mobius invariance and the recorded per-seed digest.

        Every answer is checked.  Each question is solved afresh, from
        empty caches, so that no check reads back the timed operation's
        cached result; a later pass must repeat the first pass's answers.
        """
        farey = self.api.farey
        Slope, INFINITY = farey.Slope, farey.INFINITY
        caches = lru_caches(farey)
        problems = []

        def solve(x, y):
            clear_caches(caches)
            found = farey.geodesics(x, y)
            union = {(v.p, v.q) for g in found for v in g.vertices}
            return farey.distance(x, y), len(found), union

        rng = random.Random(self.seed)
        for n in (20, 157, 300):  # 1/n: distance 2 through 0/1, one geodesic
            word = mobius_word(rng, 6, 5)
            for x, y in (((1, 0), (1, n)), (act(word, (1, 0)), act(word, (1, n)))):
                d, count, _ = solve(Slope(*x), Slope(*y))
                if (d, count) != (2, 1):
                    problems.append((None, f"1/{n} moved to {text(x)} {text(y)}: d={d} count={count}"))
        for n in (8, 12, 16):  # [0; 2, ..., 2]: distance n+1, F(n+2) geodesics
            y = cf_value([0] + [2] * n)
            word = mobius_word(rng, 6, 5)
            for x, t in (((1, 0), y), (act(word, (1, 0)), act(word, y))):
                d, count, _ = solve(Slope(*x), Slope(*t))
                if (d, count) != (n + 1, fibonacci(n + 2)):
                    problems.append((None, f"[2]*{n} moved to {text(x)} {text(t)}: d={d} count={count}"))

        # Mobius invariance against the untransported pair (1/0, y).
        first_pass = {}
        for position, i, summary in items:
            if i in first_pass:
                if summary != first_pass[i]:
                    problems.append((position, f"op {i}: answer differs from the first pass"))
                continue
            first_pass[i] = summary
            _, _, y, word, _ = self.inputs[i]
            d, count, union = solve(INFINITY, Slope(*y))
            moved = sorted(act(word, v) for v in union)
            if (d, count, moved) != tuple(summary):
                problems.append((position, f"op {i}: transported answer differs from 1/0 -> {text(y)}"))

        recorded = json.loads(LADDER_DIGESTS.read_text())["digests"]
        prefix = [summary for position, _, summary in items[:LADDER_DIGEST_OPS] if position < LADDER_DIGEST_OPS]
        if str(self.seed) in recorded and len(prefix) == LADDER_DIGEST_OPS:
            if ladder_digest(prefix) != recorded[str(self.seed)]:
                problems.append((None, f"digest of the first {LADDER_DIGEST_OPS} ops differs from the record"))
        return problems


def ladder_digest(summaries) -> str:
    h = hashlib.sha256()
    for d, count, union in summaries:
        h.update(f"{d} {count} {' '.join(text(tuple(v)) for v in union)}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# sweep: many shallow queries, each checked against the box oracle.


class Sweep:
    """Shallow pairs with |p|, q <= 21 checked against BoxGraph(42).

    The shape of the oracle-equivalence acceptance criterion: distance by
    both routes for every pair, and all geodesics by both routes when the
    distance is at most 4.  Normalized targets repeat, so the caches work.
    The oracle is built and filled during set-up.  A pass is 2 000 pairs.
    """

    name = "sweep"
    pass_ops = 2_000
    SIZE = 21

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        n = self.SIZE
        self.slopes = [(1, 0)] + [
            (p, q) for q in range(1, n + 1) for p in range(-n, n + 1) if math.gcd(p, q) == 1
        ]
        count = len(self.slopes)
        self.inputs = []
        for _ in range(self.pass_ops):
            i = rng.randrange(count)
            j = rng.randrange(count - 1)
            self.inputs.append((i, j + (j >= i)))

    def properties(self) -> dict:
        return {}

    def prepare(self, api) -> None:
        Slope = api.farey.Slope
        self.objects = [Slope(*s) for s in self.slopes]
        self.box = api.call("boxgraph.build", self._build_box)(api.boxgraph.BoxGraph)
        self.distance = api.call("farey.distance")
        self.geodesics = api.call("farey.geodesics")
        self.box_distance = api.call("boxgraph.distance", self.box.distance)
        self.box_geodesics = api.call("boxgraph.geodesics", self.box.geodesics)

    def _build_box(self, BoxGraph):
        """The oracle with every breadth-first distance map filled.

        Filling the maps is the oracle's lazy set-up: a criterion-3 sweep
        pays it once per target over 157 000 pairs, so a short timed pass
        must not pay it inside its operations.
        """
        box = BoxGraph(2 * self.SIZE)
        for target in self.objects:
            box.distance_map(target)
        return box

    def run(self, i: int):
        a, b = self.inputs[i]
        x, y = self.objects[a], self.objects[b]
        d = self.distance(x, y)
        if d != self.box_distance(x, y):
            return False
        if d <= 4:
            return {g.vertices for g in self.geodesics(x, y)} == self.box_geodesics(x, y)
        return True

    def summarize(self, i: int, result):
        return result

    def check(self, items) -> list[tuple]:
        return [(position, f"op {i}: disagrees with the box oracle") for position, i, ok in items if not ok]


# ---------------------------------------------------------------------------
# certify: the ulfp command line over the projection, slice, bound and
# finite-graph layers.

ULFP_SIZES = tuple(range(16, 65, 4))
ULFP_BOX = 10  # ulfp sets are drawn from slopes with |p|, q <= 10
CYCLE = (
    "ulfp", "slice", "slice", "weak-index", "weak-index", "audit-bgit",
    "audit-bgit", "bounds", "bounds", "bounds", "graph-ulfp", "bounds",
)
COMMANDS = ("ulfp", "audit-bgit", "slice", "weak-index", "bounds", "graph-ulfp")


def geodesic_cf(rng: random.Random, lo: int, hi: int):
    """[0; a1..an] with every ai >= 2, and its convergent path from 1/0.

    With no partial quotient equal to 1, the path 1/0, 0/1, c1, ..., cn
    through the convergents is a geodesic of length n + 1.
    """
    terms = [0] + [rng.randint(2, 4) for _ in range(rng.randint(lo, hi))]
    path = [(1, 0)] + [cf_value(terms[: j + 1]) for j in range(len(terms))]
    return terms, path


def connected_graph(rng: random.Random, n: int, extra: int):
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def bfs(adjacency, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


class Certify:
    """In-process ``cli.run(argv)`` over a fixed cycle of subcommands.

    Every cycle of twelve operations holds one ``ulfp``, two each of
    ``slice``, ``weak-index`` and ``audit-bgit``, four ``bounds`` and one
    ``graph-ulfp``; surface kinds alternate.  ``ulfp`` alternates between
    small ``l`` (a witness on the whole surface) and ``l`` in 6..14
    (annular witnesses or multi-centre covers), and its set size walks
    through 16, 20, ..., 64, so a pass of thirteen cycles holds each
    size once.  Every other cycle the last ``bounds`` is an exact value
    of more than 10^5 digits.
    """

    name = "certify"
    pass_ops = len(ULFP_SIZES) * len(CYCLE)  # every set size once

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.inputs = []  # (argv, expectation record for the checker)
        box = [(1, 0)] + [
            (p, q) for q in range(1, ULFP_BOX + 1) for p in range(-ULFP_BOX, ULFP_BOX + 1)
            if math.gcd(p, q) == 1
        ]
        kinds = ("torus", "sphere")
        for i in range(self.pass_ops):
            cycle, slot = divmod(i, len(CYCLE))
            command = CYCLE[slot]
            kind = kinds[(cycle + slot) % 2]
            make = getattr(self, "_" + command.replace("-", "_"))
            argv, record = make(rng, cycle, slot, i, box)
            self.inputs.append((["--kind", kind] + argv, dict(record, command=command, kind=kind)))

    def _write(self, name: str, lines) -> str:
        path = self.workdir / name
        path.write_text("".join(line + "\n" for line in lines))
        return os.path.relpath(path)

    def _ulfp(self, rng, cycle, slot, i, box):
        size = ULFP_SIZES[cycle % len(ULFP_SIZES)]
        A = rng.sample(box, size)
        if cycle % 2 == 0:
            l, k = rng.randint(1, 3), rng.randint(2, 4)
        else:
            l, k = rng.randint(6, 14), rng.randint(3, 5)
        path = self._write(f"set{i}.txt", [text(a) for a in A])
        return ["ulfp", "--set", path, "--l", str(l), "--k", str(k)], {"A": A, "l": l, "k": k}

    def _audit_bgit(self, rng, cycle, slot, i, box):
        pairs = []
        for _ in range(6):
            y = cf_value([0] + [rng.randint(1, 3) for _ in range(rng.randint(4, 10))])
            word = mobius_word(rng, 4, 3)
            pairs.append((act(word, (1, 0)), act(word, y)))
        path = self._write(f"pairs{i}.txt", [f"{text(a)} {text(b)}" for a, b in pairs])
        return ["audit-bgit", "--pairs", path], {"pairs": len(pairs)}

    def _slice(self, rng, cycle, slot, i, box):
        _, path = geodesic_cf(rng, 3, 6)
        word = mobius_word(rng, 3, 2)
        moved = [act(word, v) for v in path]
        c = moved[rng.randrange(len(moved))]
        delta = rng.randint(1, 2)
        # "--" keeps argparse from reading a negative slope as an option
        argv = ["slice", "--delta", str(delta), "--", text(moved[0]), text(moved[-1]), text(c)]
        return argv, {"c": c}

    def _weak_index(self, rng, cycle, slot, i, box):
        _, path = geodesic_cf(rng, 2, 5)
        word = mobius_word(rng, 3, 2)
        moved = [act(word, v) for v in path]
        return ["weak-index", "--geodesic=" + ",".join(text(v) for v in moved)], {"path": moved}

    def _bounds(self, rng, cycle, slot, i, box):
        flavour = {7: "exact", 8: "log10", 9: "slice", 11: "big" if cycle % 2 else "exact"}[slot]
        if flavour == "exact":
            surface = rng.choice([(1, 1), (0, 4)])
            l, k = rng.randint(1, 20), rng.randint(2, 6)
            argv = ["bounds", "--surface", f"{surface[0]},{surface[1]}", "--l", str(l), "--k", str(k)]
            return argv, {"flavour": flavour, "surface": surface, "l": l, "k": k, "M": 100}
        if flavour == "big":
            l = rng.randint(24_000, 30_000)
            argv = ["bounds", "--surface", "1,1", "--l", str(l), "--k", "2"]
            return argv, {"flavour": flavour, "surface": (1, 1), "l": l, "k": 2, "M": 100}
        if flavour == "log10":
            # complexity >= 2 at M = 100 gives envelopes above 1290 digits
            surface = rng.choice([(1, 2), (0, 5), (2, 0), (1, 3)])
            l, k = rng.randint(1, 20), rng.randint(2, 6)
            argv = ["--digit-cap", "1000", "bounds", "--surface", f"{surface[0]},{surface[1]}",
                    "--l", str(l), "--k", str(k)]
            return argv, {"flavour": flavour, "surface": surface, "l": l, "k": k, "M": 100}
        surface = rng.choice([(1, 1), (0, 4)])
        argv = ["bounds", "--surface", f"{surface[0]},{surface[1]}", "--l", "1", "--k", "2"]
        if rng.random() < 0.5:
            argv.append("--slice")
        else:
            argv += ["--weak", str(rng.randint(100, 150))]
        return argv, {"flavour": flavour}

    def _graph_ulfp(self, rng, cycle, slot, i, box):
        n = rng.randint(40, 120)
        edges = connected_graph(rng, n, n // 4)
        A = sorted(rng.sample(range(n), rng.randint(10, n // 2)))
        l, k = rng.randint(1, 2), rng.randint(2, 3)
        graph = self._write(f"graph{i}.txt", [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])
        vertex_set = self._write(f"vset{i}.txt", [str(v) for v in A])
        argv = ["graph-ulfp", "--graph", graph, "--set", vertex_set, "--l", str(l), "--k", str(k)]
        return argv, {"n": n, "edges": edges, "A": A, "l": l, "k": k}

    def properties(self) -> dict:
        mix = Counter(record["command"] for _, record in self.inputs)
        sizes = Counter()
        for _, record in self.inputs:
            if record["command"] == "ulfp":
                n = len(record["A"])
                sizes["16-31" if n < 32 else "32-47" if n < 48 else "48-64"] += 1
        out = {f"input.certify.mix.{c}": mix[c] for c in COMMANDS}
        out.update({f"input.certify.set_size.{b}": sizes[b] for b in ("16-31", "32-47", "48-64")})
        return out

    def command_of(self, i: int) -> str:
        return self.inputs[i][1]["command"]

    def prepare(self, api) -> None:
        self.api = api
        self.cli_run = api.call("cli.run", api.cli.run)

    def run(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli_run(self.inputs[i][0])
        if code != 0:
            raise RuntimeError(f"exit status {code}")
        return out.getvalue()

    def summarize(self, i: int, result):
        return result

    def check(self, items) -> list[tuple]:
        """Recompute every certificate from its printed report."""
        sys.set_int_max_str_digits(0)  # exact bounds reach 10^5 digits
        self.box = self.api.boxgraph.BoxGraph(42)  # independent whole-surface judge
        self.envelopes = {}
        problems = []
        first_pass = {}
        for position, i, report in items:
            record = self.inputs[i][1]
            try:
                outputs = json.loads(report)["outputs"]
                if i in first_pass:  # a repeated pass must print the same outputs
                    problem = None if outputs == first_pass[i] else "outputs differ from the first pass"
                else:
                    first_pass[i] = outputs
                    check = getattr(self, "_check_" + record["command"].replace("-", "_"))
                    problem = check(record, outputs)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report ({exc!r})"
            if problem:
                problems.append((position, f"op {i} ({' '.join(self.inputs[i][0])}): {problem}"))
        return problems

    def _gap(self, kind: str, subsurface: str, y, z) -> int:
        if subsurface == "whole":
            Slope = self.api.farey.Slope
            return self.box.distance(Slope(*y), Slope(*z))
        core = parse(subsurface.split(":", 1)[1])
        return annular_gap(core, y, z, 1 if kind == "torus" else 2)

    def _projects(self, subsurface: str, y) -> bool:
        return subsurface == "whole" or parse(subsurface.split(":", 1)[1]) != y

    def _check_ulfp(self, record, outputs):
        cert, A, l, k, kind = outputs["certificate"], set(record["A"]), record["l"], record["k"], record["kind"]
        if cert["type"] == "witness":
            Z, far = cert["subsurface"], [parse(s) for s in cert["slopes"]]
            if len(far) != k or not set(far) <= A or not all(self._projects(Z, y) for y in far):
                return "witness is not k projecting members of A"
            for a in range(len(far)):
                for b in range(a + 1, len(far)):
                    if self._gap(kind, Z, far[a], far[b]) <= l:
                        return f"witness gap at most l in {Z}"
            return None
        for cover in cert["covers"]:
            Z, centers = cover["subsurface"], [parse(s) for s in cover["centers"]]
            if cover["radius"] != l or len(centers) > k - 1 or not set(centers) <= A:
                return f"malformed cover of {Z}"
            for a in range(len(centers)):
                if any(self._gap(kind, Z, centers[a], c) <= l for c in centers[a + 1:]):
                    return f"cover centres within l in {Z}"
            for y in A:
                if self._projects(Z, y) and not any(self._gap(kind, Z, y, c) <= l for c in centers):
                    return f"{text(y)} is uncovered in {Z}"
        return None

    def _check_audit_bgit(self, record, outputs):
        if outputs["pairs_audited"] + outputs["pairs_skipped"] != record["pairs"]:
            return "audited and skipped pairs do not add up"
        if outputs["m_emp"] < 0 or (outputs["pairs_audited"] > 0) != ("attaining" in outputs):
            return "inconsistent empirical constant"
        if "attaining" in outputs:
            at = outputs["attaining"]
            x, y = (parse(s) for s in at["pair"])
            v, core = parse(at["vertex"]), parse(at["core"])
            shift = 1 if record["kind"] == "torus" else 2
            sides = [annular_gap(core, end, v, shift) for end in (x, y) if end != core]
            if min(sides) != outputs["m_emp"]:
                return "attaining vertex does not reach m_emp"
        return None

    def _check_slice(self, record, outputs):
        members = {parse(s) for s in outputs["slice"]}
        if outputs["size"] != len(members) or record["c"] not in members:
            return "slice size or centre mismatch"
        if len(members) > int(outputs["bound"]):
            return "slice exceeds its bound"
        return None

    def _check_weak_index(self, record, outputs):
        path, index = record["path"], outputs["index"]
        if index < 0 or outputs["geodesic"] != ",".join(text(v) for v in path):
            return "bad index or geodesic echo"
        if "attaining" in outputs:
            v, core = parse(outputs["attaining"]["vertex"]), parse(outputs["attaining"]["core"])
            shift = 1 if record["kind"] == "torus" else 2
            sides = [annular_gap(core, end, v, shift) for end in (path[0], path[-1]) if end != core]
            if v not in path or min(sides) != index:
                return "attaining pair does not reach the index"
        elif index != 0:
            return "nonzero index without an attaining pair"
        return None

    def _envelope(self, record) -> float:
        bounds = self.api.bounds
        key = (record["surface"], record["l"], record["k"], record["M"])
        if key not in self.envelopes:
            params = bounds.BoundParams(record["l"], record["k"], record["M"])
            value = bounds.n_bound(bounds.Surface(*record["surface"]), params, mode="log10")
            self.envelopes[key] = value.log10_upper
        return self.envelopes[key]

    def _check_bounds(self, record, outputs):
        flavour = record["flavour"]
        if flavour == "slice":
            return None if len(outputs["bounds"]) == 2 else "expected two slice bounds"
        envelope = self._envelope(record)
        value = outputs["value"]
        if flavour == "log10":
            if outputs["mode"] != "log10" or abs(float(value[3:]) - float(envelope)) > 1e-5:
                return "log10 value differs from the envelope"
            return None
        if outputs["mode"] != "exact":
            return "expected an exact value"
        l, k, M = record["l"], record["k"], record["M"]
        base = (l + 2 * M + 2) * k * (1 if record["surface"] == (1, 1) else 2)
        if value != str(base ** (l + 1)):
            return "exact value differs from the closed form"
        log10_value = (l + 1) * math.log10(base)
        if not log10_value - 1e-9 <= envelope <= log10_value + 1e-4:
            return "exact value lies outside its log10 envelope"
        if flavour == "big" and len(value) <= 100_000:
            return "big bound has at most 10^5 digits"
        return None

    def _check_graph_ulfp(self, record, outputs):
        adjacency = [[] for _ in range(record["n"])]
        for u, v in record["edges"]:
            adjacency[u].append(v)
            adjacency[v].append(u)
        l, k, A = record["l"], record["k"], set(record["A"])
        if outputs["type"] == "witness":
            chosen = outputs["vertices"]
            if len(chosen) != k or not set(chosen) <= A:
                return "witness is not k members of A"
            for v in chosen:
                dist = bfs(adjacency, v)
                if any(dist[w] <= l for w in chosen if w != v):
                    return "witness vertices within l"
            return None
        centers = outputs["centers"]
        if outputs["radius"] != l or len(centers) > k - 1 or not set(centers) <= A:
            return "malformed cover"
        reach = [bfs(adjacency, c) for c in centers]
        if any(all(dist[v] > l for dist in reach) for v in A):
            return "a member is uncovered"
        return None


WORKLOADS = {cls.name: cls for cls in (Ladder, Sweep, Certify)}
