from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from bsfloer import diagram as D
from bsfloer import rings as R

settings.register_profile(
    "fast",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(scope="session")
def wide_diagrams():
    """The first 150 draws at seed 1 of a wide family: 8 to 22 out-arcs, 3
    alpha circles and 6 or 7 beta circles, each (beta, alpha) pair crossing
    once with probability 0.8 and a random sign.  The kernel bases are K
    dense vectors in up to 22 coordinates (draw 8: 22 out-arcs, 6 betas)."""
    rng, g, out = random.Random(1), R.GroupDescriptor(0), []
    for _ in range(150):
        outs = [f"o{j}" for j in range(rng.randint(8, 22))]
        circles = [f"a{j}" for j in range(3)]
        betas = [f"B{i}" for i in range(rng.randint(6, 7))]
        pts = [D.Point(a, b, rng.choice((1, -1)), g.identity())
               for b in betas for a in outs + circles if rng.random() < 0.8]
        out.append(D.make_diagram(g, D.interval_arcs(len(outs)), None,
                                  [(o, "same") for o in outs], circles, [],
                                  [(b, None) for b in betas], pts))
    return out
