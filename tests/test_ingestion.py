"""Ingestion drops hostile records without a trace: a stream with injected
malformed (non-integer ids and non-numeric blocks included), repeated,
misdated or revoked-client records yields the verdicts (and, for stdlens,
the watchlist strikes) of the same stream without them, and without the
records that a repeat copies. No window that stdlens decides holds a
revoked client. Judging a window's calls when it closes keeps the rules
that judged each call on its own."""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from stdlens import metrics
from stdlens.baselines import SpatialClusterDefense, SpectralSignatureDefense
from stdlens.config import load_config
from stdlens.forensics import MAX_BLOCK_ENTRY, GradientContribution, StdLensDefense
from stdlens.robust import random_premise_mixture, synth_two_population_stream
from stdlens.seeding import make_rng

CANONICAL = Path(__file__).resolve().parents[1] / "configs" / "class_poison.yaml"
WINDOW = 5
ROUNDS = 15
ATTACKER = 99


class _Recording:
    """Mixed in before a defense: keeps every window its _decide receives,
    in order, in `windows`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def _decide(self, classes):
        self.windows.append(classes)
        return super()._decide(classes)


class _CheckedStdLens(_Recording, StdLensDefense):
    """StdLensDefense that asserts that no window it decides holds a revoked
    client, the invariant that lets _decide skip revoked-client checks."""

    def _decide(self, classes):
        assert all(self.revoked.isdisjoint(ids.tolist()) for ids, _, _ in classes.values())
        return super()._decide(classes)


class _RecordingSpatial(_Recording, SpatialClusterDefense):
    pass


class _RecordingSpectral(_Recording, SpectralSignatureDefense):
    pass


def _make(name: str, dim, shell=()):
    """A defense of `name` over 2 classes; the mixins in `shell` go before
    its class."""
    cls, kwargs = {
        "stdlens": (_CheckedStdLens, dict(omega=1, confidence=0.99)),
        "stdlens-raw": (_CheckedStdLens, dict(omega=1, confidence=0.99,
                                              normalize_blocks=False)),
        "spatial": (_RecordingSpatial, {}),
        "spectral": (_RecordingSpectral, dict(removal_fraction=0.1)),
    }[name]
    if shell:
        cls = type(cls.__name__, (*shell, cls), {})
    return cls(num_classes=2, window=WINDOW, block_dim=dim, **kwargs)


def _same_windows(got: list, want: list) -> bool:
    """Equal lists of decided windows: the same classes, and per class the
    same (ids, rounds, blocks) in dtype and bits."""
    return len(got) == len(want) and all(
        list(g) == list(w) and all(x.dtype == y.dtype and np.array_equal(x, y)
                                   for c in g for x, y in zip(g[c], w[c], strict=True))
        for g, w in zip(got, want))


def _honest_stream(seed: int, n_honest: int, dim: int):
    """n_honest noise clients and ATTACKER replaying one payload, both classes."""
    rng = np.random.default_rng(seed)
    payload = np.full(dim, 6.0)
    stream = []
    for r in range(ROUNDS):
        contribs = []
        for c in range(2):
            contribs += [GradientContribution(cid, r, c, rng.standard_normal(dim))
                         for cid in range(n_honest)]
            contribs.append(GradientContribution(
                ATTACKER, r, c, payload + 0.01 * rng.standard_normal(dim)))
        stream.append(contribs)
    return stream


# each kind makes one record that one drop rule removes; the entry bound
# is no drop rule for stdlens with unit-norm admission, which rescales it
KINDS = ["nan", "inf", "huge", "short", "long", "class", "dup", "late", "revoked",
         "float-id", "bool-id", "text", "ragged"]


def _hostile(kind, original, c, dim, revoked_by):
    """The injected record of `kind` beside the honest record `original`, or
    None when the kind does not apply there (no client revoked yet)."""
    cid, r = original.client_id, original.round
    block = np.full(dim, 6.0)               # the attacker's payload direction
    if kind == "nan":
        block[0] = np.nan
    elif kind == "inf":
        block[-1] = -np.inf
    elif kind == "huge":
        block = np.full(dim, 1e200)
    elif kind == "short":
        block = block[:-1]
    elif kind == "long":
        block = np.append(block, 6.0)
    elif kind == "text":
        block = ["x"] * dim
    elif kind == "ragged":
        block = [[6.0]] * (dim - 1) + [[6.0, 6.0]]
    elif kind == "class":
        c = 2 if cid % 2 else -1
    elif kind == "dup":
        c = original.class_id
    elif kind == "late":
        r += 1 + cid % 3
    elif kind == "revoked":
        gone = sorted(v for v, at in revoked_by.items() if at < r)
        if not gone:
            return None
        cid = gone[0]
    elif kind == "float-id":
        # one id half above the original's, which truncates to it
        if cid % 3 == 0:
            cid += 0.5
        elif cid % 3 == 1:
            r += 0.5
        else:
            c += 0.5
    elif kind == "bool-id":
        cid, c = bool(cid % 2), bool(c)     # equal to client 0 or 1, class 0 or 1
    return GradientContribution(cid, r, c, block)


@pytest.mark.parametrize("name", ["stdlens", "stdlens-raw", "spatial", "spectral"])
# no shrink phase: a failing run reports its first falsifying example
# instead of minimising 12-injection examples over four defenses
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1), n_honest=st.integers(8, 12),
       dim=st.integers(3, 7),
       injections=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, ROUNDS - 1),
                                     st.integers(0, 200), st.integers(0, 1),
                                     st.integers(0, 10 ** 6)),
                           max_size=12))
def test_hostile_records_change_no_verdict(name, seed, n_honest, dim, injections):
    stream = _honest_stream(seed, n_honest, dim)
    # a repeated triple is dropped in every copy: expect the verdicts of the
    # stream without the honest records that a dup repeats
    repeated = {(r, who % len(stream[r])) for kind, r, who, _, _ in injections
                if kind == "dup"}
    clean = _make(name, dim)
    want = [clean.observe_contributions(r, [g for i, g in enumerate(c)
                                            if (r, i) not in repeated])
            for r, c in enumerate(stream)]
    revoked_by = {cid: r for r, (revoked, _) in enumerate(want) for cid in revoked}

    dirty_stream = [list(c) for c in stream]
    for kind, r, who, c, where in injections:
        if kind == "huge" and name == "stdlens":
            continue
        contribs = dirty_stream[r]
        g = _hostile(kind, stream[r][who % len(stream[r])], c, dim, revoked_by)
        if g is None:
            continue
        # anywhere, before the honest record of its triple too
        contribs.insert(where % (len(contribs) + 1), g)

    dirty = _make(name, dim)
    got = [dirty.observe_contributions(r, c) for r, c in enumerate(dirty_stream)]
    assert got == want
    assert dirty.revoked == clean.revoked
    assert dirty.clients == clean.clients
    if name.startswith("stdlens"):
        # no honest client collects a strike from a hostile record
        assert dirty.strikes == clean.strikes


@pytest.mark.parametrize("name", ["stdlens", "stdlens-raw", "spatial", "spectral"])
def test_a_copy_placed_first_cannot_frame_the_client_it_names(name):
    # a payload copy of honest client 3's triples before its own records, in
    # every round: were the first copy kept, stdlens, stdlens-raw and
    # spatial would revoke client 3
    stream = _honest_stream(7, 10, 5)
    clean, dirty = _make(name, 5), _make(name, 5)
    for r, contribs in enumerate(stream):
        framed = [GradientContribution(3, r, c, np.full(5, 6.0)) for c in range(2)]
        want = clean.observe_contributions(r, [g for g in contribs if g.client_id != 3])
        assert dirty.observe_contributions(r, framed + contribs) == want
    assert 3 not in dirty.revoked and dirty.revoked == clean.revoked
    assert dirty.clients == clean.clients


@pytest.mark.parametrize("name", ["stdlens", "spatial", "spectral"])
def test_a_repeat_in_a_second_call_for_the_round_is_dropped(name):
    stream = _honest_stream(3, 10, 5)
    clean, dirty = _make(name, 5), _make(name, 5)
    want = [clean.observe_contributions(r, c) for r, c in enumerate(stream)]
    for r, contribs in enumerate(stream):
        assert dirty.observe_contributions(r, contribs) == want[r]
        if r % WINDOW != WINDOW - 1:
            # every honest triple again, on the payload, in its own call
            repeats = [GradientContribution(g.client_id, r, g.class_id, np.full(5, 6.0))
                       for g in contribs if g.client_id != ATTACKER]
            assert dirty.observe_contributions(r, repeats) == ([], [])
    assert dirty.revoked == clean.revoked


def test_ids_beyond_int64_are_dropped():
    stream = _honest_stream(4, 10, 5)
    clean, dirty = _make("stdlens", 5), _make("stdlens", 5)
    want = [clean.observe_contributions(r, c) for r, c in enumerate(stream)]
    huge = [GradientContribution(2 ** 70, 0, 0, np.full(5, 6.0)),
            GradientContribution(1, -2 ** 70, 0, np.full(5, 6.0)),
            GradientContribution(1, 0, 2 ** 64, np.full(5, 6.0))]
    got = [dirty.observe_contributions(r, (huge if r == 0 else []) + c)
           for r, c in enumerate(stream)]
    assert got == want
    # a round far past every window closes the open one and admits nothing
    assert dirty.observe_contributions(2 ** 70, huge) == ([], [])
    assert dirty.clients == clean.clients


def test_without_block_dim_a_trailing_short_record_cannot_set_the_length():
    # one 3-entry record after the round's 5-entry ones, in every round
    stream = _honest_stream(5, 10, 5)
    clean = StdLensDefense(num_classes=2, window=WINDOW, omega=1, confidence=0.99)
    dirty = StdLensDefense(num_classes=2, window=WINDOW, omega=1, confidence=0.99)
    want = [clean.observe_contributions(r, c) for r, c in enumerate(stream)]
    got = [dirty.observe_contributions(r, c + [GradientContribution(0, r, 0, np.ones(3))])
           for r, c in enumerate(stream)]
    assert got == want
    assert dirty.block_dim == 5


@pytest.mark.parametrize("name", ["stdlens", "stdlens-raw", "spatial", "spectral"])
def test_one_entry_blocks_never_set_the_length(name):
    # four 1-entry records before the honest 6-entry ones in rounds 0-3; a
    # length of 1 would make spatial_project raise at the first window close
    stream = _honest_stream(8, 20, 6)
    clean, dirty = _make(name, 6), _make(name, None)
    want = [clean.observe_contributions(r, c) for r, c in enumerate(stream)]
    got = [dirty.observe_contributions(r, [GradientContribution(cid, r, 0, np.full(1, 6.0))
                                           for cid in range(100, 104) if r < 4] + c)
           for r, c in enumerate(stream)]
    assert got == want
    assert dirty.block_dim == 6 and dirty.clients == clean.clients


@pytest.mark.parametrize("name", ["stdlens", "stdlens-raw", "spatial", "spectral"])
def test_a_block_length_below_2_is_refused(name):
    with pytest.raises(ValueError, match="block_dim"):
        _make(name, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: StdLensDefense(num_classes=2, window=0, omega=1, confidence=0.99), "window"),
    (lambda: SpatialClusterDefense(num_classes=2, window=0), "window"),
    (lambda: SpectralSignatureDefense(num_classes=2, window=0, removal_fraction=0.1),
     "window"),
    (lambda: StdLensDefense(num_classes=2, window=WINDOW, omega=1, confidence=0.9),
     "confidence"),
], ids=["stdlens-window-0", "spatial-window-0", "spectral-window-0", "confidence-0.9"])
def test_a_parameter_that_would_crash_a_later_round_is_refused(make, message):
    # window 0 divides by zero at the first round, and a confidence with no
    # z value fails at the first window: both are refused when built
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("n3, n4, want", [(3, 3, 4), (4, 2, 3)])
def test_the_length_does_not_depend_on_record_order(n3, n4, want):
    # n3 3-entry and n4 4-entry records; the longer length wins a tie
    rng = np.random.default_rng(9)
    records = [GradientContribution(cid, 0, 0, rng.standard_normal(3 + (cid >= n3)))
               for cid in range(n3 + n4)]
    admitted = []
    for order in (records, records[::-1]):
        defense = StdLensDefense(num_classes=1, window=2, omega=1, confidence=0.99)
        defense.observe_contributions(0, order)
        admitted.append((defense.block_dim, defense.clients))
    kept = {g.client_id for g in records if len(g.block) == want}
    assert admitted == [(want, kept)] * 2


def _criterion6_trial0():
    """Criterion 6's trial-0 attacked stream (block dim 6) and its attackers."""
    rng = make_rng(1234, "acc-stream", 0)
    mix = random_premise_mixture(rng, int(rng.integers(4, 17)), 0.2)
    stream, roles = synth_two_population_stream(mix, 50, 30, int(rng.integers(0, 2 ** 32)))
    return stream, {c for c, role in roles.items() if role == "malicious"}


def _short(**fields):
    return replace(GradientContribution(0, 0, 0, np.ones(3)), **fields)


# 3-entry records placed first in round 0: ingestion drops the hostile
# ones, and the round's fifty 6-entry records outvote the valid ones
SHORT_FIRST = {
    "nan": [_short(block=np.array([np.nan, 1.0, 1.0]))],
    "class": [_short(class_id=5)],
    "late": [_short(round=7)],
    "text": [_short(block=["x"] * 3)],
    "valid": [_short()],
    "five-valid": [_short(client_id=cid) for cid in range(100, 105)],
}


@pytest.mark.parametrize("kind", SHORT_FIRST)
def test_a_short_first_record_does_not_fix_the_length(kind):
    stream, attackers = _criterion6_trial0()

    def defense():
        return _CheckedStdLens(num_classes=1, window=10, omega=1, confidence=0.99,
                               normalize_blocks=False)

    clean, dirty = defense(), defense()
    want = [clean.observe_contributions(c[0].round, c) for c in stream]
    got = [dirty.observe_contributions(c[0].round, (SHORT_FIRST[kind] if r == 0 else []) + c)
           for r, c in enumerate(stream)]
    assert clean.revoked == attackers and len(attackers) == 10
    assert dirty.block_dim == 6 and len(dirty.clients) == 50
    assert got == want


def test_a_live_window_never_holds_a_revoked_client(monkeypatch):
    monkeypatch.setattr(metrics, "StdLensDefense", _CheckedStdLens)
    config = metrics.vary(load_config(CANONICAL), seed=1, defense="stdlens")
    _, _, score = metrics.run_experiment(config, eval_every=config.federation.rounds)
    assert score.true_positives > 0      # later windows ran with clients revoked


@pytest.mark.parametrize("bad", [1.5, True, np.float64(1.0)], ids=repr)
def test_a_non_integer_client_id_takes_no_client_slot(bad):
    # int64 truncation would turn each of these ids into honest client 1
    def round0(hostile):
        defense = _CheckedStdLens(num_classes=1, window=2, omega=1, confidence=0.99,
                                  block_dim=4)
        rng = np.random.default_rng(0)
        defense.observe_contributions(0, hostile + [
            GradientContribution(c, 0, 0, rng.standard_normal(4)) for c in range(5)])
        defense.window_step()
        (window,) = defense.windows
        return window.values()

    ((ids, _, blocks),) = round0([GradientContribution(bad, 0, 0, np.full(4, 6.0))])
    ((want_ids, _, want_blocks),) = round0([])
    assert ids.tolist() == want_ids.tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(blocks, want_blocks)


# Odd rounds, each keeping just what the rules keep record by record. List
# blocks and ids of any integer type within int64 build in one step (the id
# columns are built as int64); 2-D blocks, a bool id and a uint64 id beyond
# int64 send the round to the per-record filter.
ODD_ROUNDS = {
    "two-dim-blocks": (lambda g: [replace(g, block=g.block[None])], lambda g: []),
    "list-blocks": (lambda g: [replace(g, block=g.block.tolist())], lambda g: [g]),
    "int32-ids": (lambda g: [replace(g, client_id=np.int32(g.client_id),
                                     round=np.int32(g.round),
                                     class_id=np.int32(g.class_id))], lambda g: [g]),
    "uint64-ids": (lambda g: [replace(g, client_id=np.uint64(g.client_id),
                                      round=np.uint64(g.round),
                                      class_id=np.uint64(g.class_id))], lambda g: [g]),
    "uint64-beyond-int64": (lambda g: [replace(g, client_id=np.uint64(2 ** 63 + g.client_id))],
                            lambda g: []),
    "mixed-integer-types": (lambda g: [replace(g, client_id=(int, np.int64, np.uint64)[
        g.client_id % 3](g.client_id))], lambda g: [g]),
    "int-and-bool-ids": (lambda g: [replace(g, client_id=True), g], lambda g: [g]),
}


@pytest.mark.parametrize("kind", ODD_ROUNDS)
def test_an_odd_round_keeps_what_the_record_rules_keep(kind):
    odd, kept = ODD_ROUNDS[kind]
    stream = _honest_stream(6, 10, 5)

    def every_third_round(f):
        return [[h for g in c for h in f(g)] if r % 3 == 2 else c
                for r, c in enumerate(stream)]

    clean, dirty = _make("stdlens", 5), _make("stdlens", 5)
    for r, (got, want) in enumerate(zip(every_third_round(odd), every_third_round(kept))):
        assert dirty.observe_contributions(r, got) == clean.observe_contributions(r, want)
        assert _same_windows(dirty.windows, clean.windows)
    assert (dirty.revoked, dirty.clients, dirty.strikes) == (
        clean.revoked, clean.clients, clean.strikes)


class _PerCallIngest:
    """The reference for the window-close judge. Mixed in before a defense,
    it judges each call on its own, as the shell did before it held calls
    until their window closed: the masks, `_admit`, the entry bound, then
    the triples of the call counted against those met earlier in the
    window, and the kept rows buffered per class as one chunk per call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunks = {c: [] for c in range(self.num_classes)}
        self.met, self.open_window, self.admitted = set(), 0, set()

    @property
    def clients(self):
        return self.admitted

    def _ingest(self, round_idx, ids, rounds, class_ids, blocks):
        index = round_idx // self.window
        if index < self.open_window:
            return [], []
        verdicts = self.window_step() if index > self.open_window else ([], [])
        self.open_window = index
        revoked = np.array([cid in self.revoked for cid in ids.tolist()], dtype=bool)
        keep = ((rounds == round_idx) & ~revoked
                & (class_ids >= 0) & (class_ids < self.num_classes)
                & np.isfinite(blocks).all(axis=1))
        if self.block_dim is None and keep.any():
            self.block_dim = blocks.shape[1]
        rows = np.flatnonzero(keep & (blocks.shape[1] == self.block_dim))
        admitted = self._admit(blocks[rows])
        fits = np.abs(admitted).max(axis=1, initial=0.0) <= MAX_BLOCK_ENTRY
        rows, admitted = rows[fits], admitted[fits]
        triples = list(zip(ids[rows].tolist(), rounds[rows].tolist(),
                           class_ids[rows].tolist()))
        count = Counter(triples)
        once = np.array([count[t] == 1 and t not in self.met for t in triples], dtype=bool)
        self.met |= set(triples)
        rows, admitted = rows[once], admitted[once]
        for c in range(self.num_classes):
            mine = class_ids[rows] == c
            if mine.any():
                self.chunks[c].append((ids[rows][mine], rounds[rows][mine], admitted[mine]))
        self.admitted.update(ids[rows].tolist())
        if round_idx % self.window == self.window - 1:
            revocations, events = self.window_step()
            self.open_window = index + 1
            verdicts = (verdicts[0] + revocations, verdicts[1] + events)
        return verdicts

    def window_step(self):
        chunks, self.chunks = self.chunks, {c: [] for c in range(self.num_classes)}
        self.met = set()
        window = {c: tuple(map(np.concatenate, zip(*parts)))
                  for c, parts in chunks.items() if parts}
        revocations, events = self._decide(window)
        revocations = sorted(set(revocations) - self.revoked)
        self.revoked.update(revocations)
        return revocations, events


def _call_mix(seed: int, dim: int) -> list:
    """Seeded (round, records) calls: honest rounds with hostile records
    (_hostile's kinds) mixed in, a round split over two calls that repeat
    some triples, stale rounds, at most one round of a later window, calls
    of other lengths that come before any row has fixed the length, and an
    end that may fall inside a window."""
    rng = np.random.default_rng(seed)
    stream = _honest_stream(seed, int(rng.integers(8, 12)), dim)
    revoked_by = {ATTACKER: -1}
    calls = []
    if rng.random() < 0.5:       # no row of these passes the masks
        calls += [(0, [GradientContribution(cid, 0, 0, np.full(dim - 1, np.nan))
                       for cid in range(3)]),
                  (0, [GradientContribution(cid, 1, 0, np.ones(dim + 1)) for cid in range(3)])]
    if rng.random() < 0.25:      # a valid short call fixes an unset length
        calls.append((0, [GradientContribution(cid, 0, 1, rng.standard_normal(dim - 1))
                          for cid in range(100, 103)]))
    leap = int(rng.integers(0, 2 * ROUNDS))
    for r in range(int(rng.integers(ROUNDS - WINDOW + 1, ROUNDS + 1))):
        records = list(stream[r])
        for _ in range(int(rng.integers(0, 4))):
            g = _hostile(KINDS[int(rng.integers(len(KINDS)))],
                         records[int(rng.integers(len(stream[r])))],
                         int(rng.integers(2)), dim, revoked_by)
            if g is not None:
                records.insert(int(rng.integers(len(records) + 1)), g)
        if rng.random() < 0.3:   # one round over two calls; some triples in both
            cut = int(rng.integers(len(records) + 1))
            again = [records[int(i)] for i in rng.integers(0, len(records), 2)]
            calls += [(r, records[:cut]), (r, records[cut:] + again)]
        else:
            calls.append((r, records))
        if r >= WINDOW and rng.random() < 0.2:
            stale = r - WINDOW - int(rng.integers(0, 2))
            calls.append((stale, stream[stale]))
        if r == leap and r + WINDOW < ROUNDS:
            calls.append((r + WINDOW, stream[r + WINDOW]))
    return calls


@pytest.mark.parametrize("fixed", [True, False], ids=["block-dim", "no-block-dim"])
@pytest.mark.parametrize("name", ["stdlens", "stdlens-raw", "spatial", "spectral"])
@pytest.mark.parametrize("seed", range(8))
def test_judging_at_the_window_close_keeps_the_per_call_rules(seed, name, fixed):
    dim = 4 + seed % 3
    want = _make(name, dim if fixed else None, shell=(_PerCallIngest,))
    # one shell is read after every call, so it judges call by call; the
    # other is read only at the end, so it judges each window at its close
    eager, lazy = _make(name, dim if fixed else None), _make(name, dim if fixed else None)
    for r, records in _call_mix(seed, dim):
        verdicts = want.observe_contributions(r, records)
        assert eager.observe_contributions(r, records) == verdicts
        assert lazy.observe_contributions(r, records) == verdicts
        assert eager.clients == want.clients
        assert eager.block_dim == lazy.block_dim == want.block_dim
        assert _same_windows(eager.windows, want.windows)
        assert _same_windows(lazy.windows, want.windows)
    assert lazy.clients == eager.clients == want.clients
    assert lazy.revoked == eager.revoked == want.revoked
