"""The exemplar archive's match test against the per-client loop it replaced,
kept here as the oracle with its own copies of the radius and exemplar
helpers, so an edit to the module's helpers cannot move the reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stdlens.config import CONFIDENCE_TO_Z
from stdlens.forensics import StdLensDefense

HONEST_IDS, ATTACKER_IDS, BOUNDARY_ID = range(0, 100), range(100, 200), 200


def _population_radius(rest, z):
    center = rest.mean(axis=0)
    dist = np.linalg.norm(rest - center, axis=1)
    return center, dist.mean() + z * dist.std(ddof=1)


def _near_exemplar(pts, exemplars, center, factor):
    near = np.zeros(len(pts), dtype=bool)
    for e in exemplars:
        near |= np.linalg.norm(pts - e, axis=1) < factor * np.linalg.norm(e - center)
    return near


def _reference_matches(defense, classes) -> set:
    """Every client of every class with exemplars takes the exact test: all
    its rows outside the radius of the other off-watchlist rows, and each
    closer to some exemplar than 0.75 times that exemplar's distance to
    their center. A client is on the watchlist when it has a strike and is
    not revoked."""
    watched = {cid for cid in defense.strikes if cid not in defense.revoked}
    z = CONFIDENCE_TO_Z[defense.confidence]
    matches = set()
    for c, (ids, _, blocks) in classes.items():
        exemplars = defense._exemplars.get(c)
        if not exemplars or len(ids) < 4:
            continue
        on_list = np.array([cid in watched for cid in ids])
        for cid in set(ids.tolist()):
            mine = ids == cid
            rest = blocks[~mine & ~on_list]
            if len(rest) < 3:
                continue
            center, radius = _population_radius(rest, z)
            pts = blocks[mine]
            outside = np.linalg.norm(pts - center, axis=1) > radius
            if (outside & _near_exemplar(pts, exemplars, center, 0.75)).all():
                matches.add(cid)
    return matches


def _class_window(rng, dim, n_honest, n_attackers, rows, n_exemplars, ulps, watch,
                  scale=1.0, shift=0.0):
    """One class: honest noise rows, attacker rows near a payload, exemplars
    around it, and a client whose rows sit on the 0.75 boundary of one
    exemplar, `ulps` relative steps of 2**-52 from it. Every row and
    exemplar is `scale` times the unit-scale draw, moved by a common offset
    of norm `shift * scale`. Returns the class's (ids, rounds, blocks), its
    exemplars and its watchlisted ids."""
    payload = rng.standard_normal(dim)
    payload *= 30.0 * scale / np.linalg.norm(payload)
    offset = rng.standard_normal(dim) if shift else np.zeros(dim)
    offset *= shift * scale / max(np.linalg.norm(offset), 1.0)
    payload += offset
    exemplars = [payload + 0.5 * scale * rng.standard_normal(dim)
                 for _ in range(n_exemplars)]
    ids, blocks = [], []
    for r in range(rows):
        for cid in HONEST_IDS[:n_honest]:
            ids.append(cid)
            blocks.append(offset + scale * rng.standard_normal(dim))
        for cid in ATTACKER_IDS[:n_attackers]:
            ids.append(cid)
            blocks.append(payload + 0.3 * scale * rng.standard_normal(dim))
    ids, blocks = np.array(ids), np.array(blocks)
    watched = {cid for cid in [*ids.tolist(), BOUNDARY_ID] if watch[cid % len(watch)]}
    # the boundary client's rows are not in its own rest, so its center is
    # known before they are placed
    off = ~np.isin(ids, list(watched))
    center = blocks[off].mean(axis=0) if off.any() else payload
    e = exemplars[0]
    reach = 0.75 * np.linalg.norm(e - center) * (1 + ulps * np.finfo(float).eps)
    for r in range(rows):
        u = rng.standard_normal(dim)
        ids = np.append(ids, BOUNDARY_ID)
        blocks = np.vstack([blocks, e + reach * u / np.linalg.norm(u)])
    order = rng.permutation(len(ids))
    ids, blocks = ids[order], blocks[order]
    return (ids, np.zeros(len(ids), dtype=int), blocks), exemplars, watched


def _check_window(seed, n_classes, dim, n_honest, n_attackers, rows, n_exemplars, ulps,
                  watch, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    defense = StdLensDefense(num_classes=n_classes, window=10, omega=1, confidence=0.99)
    classes = {}
    for c in range(n_classes):
        classes[c], defense._exemplars[c], watched = _class_window(
            rng, dim, n_honest, n_attackers, rows, n_exemplars, ulps, watch, scale, shift)
        for cid in watched:
            defense.strikes[cid] = 1
    assert defense._exemplar_matches(classes) == _reference_matches(defense, classes)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_classes=st.integers(1, 2),
       dim=st.integers(2, 12), n_honest=st.integers(1, 30), n_attackers=st.integers(0, 3),
       rows=st.integers(1, 3), n_exemplars=st.integers(1, 3), ulps=st.integers(-4, 4),
       watch=st.lists(st.booleans(), min_size=1, max_size=5))
@example(seed=0, n_classes=1, dim=4, n_honest=6, n_attackers=2, rows=2, n_exemplars=1,
         ulps=0, watch=[False])
def test_exemplar_matches_equal_the_per_client_loop(seed, n_classes, dim, n_honest,
                                                    n_attackers, rows, n_exemplars,
                                                    ulps, watch):
    _check_window(seed, n_classes, dim, n_honest, n_attackers, rows, n_exemplars, ulps,
                  watch)


# the live block length, where the prefilter's products round most, and
# the window scaled near the smallest squares that stay normal, to squares
# that underflow and near MAX_BLOCK_ENTRY (1e100), or moved far from the
# origin, which makes the products' cancellation large; the boundary client
# sits 4 ulps inside or outside
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_honest=st.integers(3, 30),
       n_attackers=st.integers(0, 3), rows=st.integers(1, 3), n_exemplars=st.integers(1, 3),
       ulps=st.sampled_from([-4, 4]), scale=st.sampled_from([1.0, 1e-150, 1e-160, 1e95]),
       shift=st.sampled_from([0.0, 1e5]), watch=st.lists(st.booleans(), min_size=1,
                                                        max_size=3))
def test_exemplar_matches_equal_the_loop_at_the_live_length_and_extreme_scales(
        seed, n_honest, n_attackers, rows, n_exemplars, ulps, scale, shift, watch):
    _check_window(seed, 1, 288, n_honest, n_attackers, rows, n_exemplars, ulps, watch,
                  scale, shift)


def test_attackers_and_an_inside_boundary_client_match():
    rng = np.random.default_rng(0)
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99)
    classes = {}
    classes[0], defense._exemplars[0], _ = _class_window(
        rng, dim=6, n_honest=30, n_attackers=1, rows=3, n_exemplars=2, ulps=-2,
        watch=[False])
    want = {100, BOUNDARY_ID}
    assert _reference_matches(defense, classes) == want
    assert defense._exemplar_matches(classes) == want
