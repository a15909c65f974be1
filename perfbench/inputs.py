"""Seeded benchmark inputs, written as diagram JSON documents.

Nothing here imports the library: the documents are built from the file
format alone, so a change to the library cannot change what it is given.
The same seed always gives the same documents.
"""

from __future__ import annotations

import json
import random

# Groups Z^r x Z/m for the weighted workload.  m = 6 splits Q[H] into four
# cyclotomic components, m = 2 and 3 into two.
WEIGHTED_GROUPS = [(r, m) for r in (0, 1, 2) for m in (1, 2, 3, 6)]
# (outgoing, incoming) arc counts, at most 2 arcs per piece: pieces with 3
# or 4 arcs cost 10 to 100 times more and their few outliers made the
# per-seed spread of a round several times wider.
WEIGHTED_ARCS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


def arcs_json(*blocks):
    """Alpha arc diagram made of one interval per block; block b holds b
    arcs matched to neighbouring points.  No arcs gives null."""
    blocks = [b for b in blocks if b]
    if not blocks:
        return None
    total = sum(blocks)
    return {
        "components": [{"kind": "interval", "points": 2 * b} for b in blocks],
        "matching": [[2 * i, 2 * i + 1] for i in range(total)],
        "type": "alpha",
    }


def weight_text(free, tors) -> str:
    factors = [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
               for i, e in enumerate(free) if e]
    if tors:
        factors.append("s" if tors == 1 else f"s^{tors}")
    return "*".join(factors) or "1"


def diagram_doc(rank=0, tors=1, left=None, right=None, outs=(), circles=(),
                ins=(), betas=(), points=()):
    """outs and ins are (id, orient) pairs; points are (alpha, beta, sign)
    or (alpha, beta, sign, weight text)."""
    pts = []
    for p in points:
        entry = {"alpha": p[0], "beta": p[1], "sign": p[2]}
        if len(p) > 3 and p[3] != "1":
            entry["weight"] = p[3]
        pts.append(entry)
    return {
        "group": {"free_rank": rank, "torsion_order": tors},
        "boundary_left": left,
        "boundary_right": right,
        "alpha": {
            "out": [{"id": i, "orient": o} for i, o in outs],
            "circles": list(circles),
            "in": [{"id": i, "orient": o} for i, o in ins],
        },
        "beta": {"circles": [{"id": b} for b in betas]},
        "points": pts,
    }


def text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# dense closed presentations


def dense_matrix(rng: random.Random, n: int) -> list:
    """n x n matrix with entries +-1 and +-2.  The magnitudes form a
    circulant with n // 2 twos in every row and column, with rows and
    columns shuffled, so every matrix of one size has the same number of
    generators (the permanent of the magnitudes); only signs and positions
    vary with the seed."""
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    return [[(2 if (cols[j] - rows[i]) % n < n // 2 else 1)
             * rng.choice((-1, 1)) for j in range(n)] for i in range(n)]


def closed_doc(matrix) -> dict:
    """Ordinary diagram presenting the matrix: entry m is |m| crossings of
    sign m / |m| between beta row and alpha column."""
    n = len(matrix)
    points = [(f"A{j + 1}", f"B{i + 1}", 1 if m > 0 else -1)
              for i, row in enumerate(matrix) for j, m in enumerate(row)
              for _ in range(abs(m))]
    return diagram_doc(circles=[f"A{j + 1}" for j in range(n)],
                       betas=[f"B{i + 1}" for i in range(n)], points=points)


# ---------------------------------------------------------------------------
# weighted bordered pieces


def weighted_doc(rng: random.Random, rank: int, tors: int, n_out: int,
                 n_in: int, n_circles: int, n_betas: int) -> dict:
    """Random bordered piece with the given curve counts: each beta circle
    gets 1 to 3 crossings with random alpha curves, each interior circle
    one more crossing with a random beta circle; at most 3 crossings per
    curve pair, random signs, orientations and weights in Z^rank x Z/tors."""
    circles = [f"C{i + 1}" for i in range(n_circles)]
    betas = [f"b{t + 1}" for t in range(n_betas)]
    outs = [(f"aOut{j + 1}", rng.choice(("same", "opposite"))) for j in range(n_out)]
    ins = [(f"aIn{i + 1}", rng.choice(("same", "opposite"))) for i in range(n_in)]
    alphas = [i for i, _ in outs] + circles + [i for i, _ in ins]
    seen: dict = {}
    points = []

    def add(alpha, beta):
        if seen.get((alpha, beta), 0) >= 3:
            return
        seen[(alpha, beta)] = seen.get((alpha, beta), 0) + 1
        free = [rng.randint(-1, 1) for _ in range(rank)]
        points.append((alpha, beta, rng.choice((-1, 1)),
                       weight_text(free, rng.randrange(tors))))

    for b in betas:
        for _ in range(rng.randint(1, 3)):
            add(rng.choice(alphas), b)
    for c in circles:
        add(c, rng.choice(betas))
    return diagram_doc(rank, tors, arcs_json(n_out), arcs_json(n_in),
                       outs, circles, ins, betas, points)


def weighted_docs(rng: random.Random, count: int) -> list:
    """count pieces.  Piece i takes its group, arc counts and curve counts
    from i, so that every run of 648 consecutive pieces holds each
    combination once and only crossings, signs and weights are random."""
    out = []
    for i in range(count):
        rank, tors = WEIGHTED_GROUPS[i % 12]
        n_out, n_in = WEIGHTED_ARCS[i // 12 % 6]
        n_circles, n_betas = divmod(i // 72 % 9, 3)
        if n_out + n_in == 0:
            n_circles = max(n_circles, 1)
        out.append(weighted_doc(rng, rank, tors, n_out, n_in, n_circles,
                                n_betas + 1))
    return out


# ---------------------------------------------------------------------------
# bordered pieces for chains


def _arc_ids(k):
    outs = [(f"aOut{j + 1}", "same") for j in range(k)]
    ins = [(f"aIn{j + 1}", "opposite") for j in range(k)]
    return outs, ins


def identity_doc(*blocks) -> dict:
    """Identity cobordism on intervals of the given arc counts: beta j
    meets out-arc j with sign -1 and in-arc j with sign +1."""
    k = sum(blocks)
    outs, ins = _arc_ids(k)
    betas = [f"b{j + 1}" for j in range(k)]
    points = [p for j in range(k)
              for p in ((outs[j][0], betas[j], -1), (ins[j][0], betas[j], 1))]
    return diagram_doc(left=arcs_json(*blocks), right=arcs_json(*blocks),
                       outs=outs, ins=ins, betas=betas, points=points)


def braid_doc(a: int, b: int) -> dict:
    """Swap of an a-arc and a b-arc interval: incoming blocks (a, b),
    outgoing blocks (b, a); beta j still joins in-arc j to out-arc j."""
    total = a + b
    order = [a + p for p in range(1, b + 1)] + list(range(1, a + 1))
    outs = [(f"aOut{j}", "same") for j in order]
    ins = [(f"aIn{j}", "opposite") for j in range(1, total + 1)]
    betas = [f"b{j}" for j in range(1, total + 1)]
    points = [p for j in range(1, total + 1)
              for p in ((f"aOut{j}", f"b{j}", -1), (f"aIn{j}", f"b{j}", 1))]
    return diagram_doc(left=arcs_json(b, a), right=arcs_json(a, b), outs=outs,
                       ins=ins, betas=betas, points=points)


def perturbed_doc(rng: random.Random, blocks_out, blocks_in, pos: int) -> dict:
    """Identity-shaped piece with one extra alpha circle C1 and beta circle
    bX: bX meets C1 twice and out-arc pos + 1, and beta circle pos + 2 also
    meets C1 (indices mod k).  The places are fixed by pos, so every piece
    of one shape has the same generators; the seed draws the signs."""
    k = sum(blocks_out)
    outs, ins = _arc_ids(k)
    betas = [f"b{j + 1}" for j in range(k)] + ["bX"]
    points = [p for j in range(k)
              for p in ((outs[j][0], betas[j], -1), (ins[j][0], betas[j], 1))]
    points += [("C1", "bX", rng.choice((-1, 1))),
               ("C1", "bX", rng.choice((-1, 1))),
               (outs[pos % k][0], "bX", rng.choice((-1, 1))),
               ("C1", betas[(pos + 1) % k], rng.choice((-1, 1)))]
    return diagram_doc(left=arcs_json(*blocks_out), right=arcs_json(*blocks_in),
                       outs=outs, circles=["C1"], ins=ins, betas=betas,
                       points=points)


# Kind sequences of the chains, read left to right.  "split" is a perturbed
# piece whose incoming interface is cut into two interval blocks, which a
# braid then swaps.
CHAIN_PATTERNS = [
    ("perturbed", "identity"),
    ("split", "braid"),
    ("identity", "perturbed", "perturbed"),
    ("split", "braid", "perturbed"),
    ("split", "braid", "braid", "identity"),
]


def chain_docs(rng: random.Random, k: int, pattern) -> list:
    """Gluable pieces on k arcs following the pattern: piece i's incoming
    interface is piece i+1's outgoing one.  A split cuts the interface into
    blocks of k // 2 and k - k // 2 arcs."""
    blocks = (k,)
    docs = []
    for pos, kind in enumerate(pattern):
        if kind == "identity":
            docs.append(identity_doc(*blocks))
        elif kind == "split":
            docs.append(perturbed_doc(rng, blocks, (k // 2, k - k // 2), pos))
            blocks = (k // 2, k - k // 2)
        elif kind == "braid":
            # braid_doc(x, y) has outgoing blocks (y, x), incoming (x, y)
            y, x = blocks
            docs.append(braid_doc(x, y))
            blocks = (x, y)
        else:
            docs.append(perturbed_doc(rng, blocks, blocks, pos))
    return docs
