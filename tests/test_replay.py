"""Stream records: the writer's bytes against the sorted-key reference, the
reader's blocks bit for bit against the written ones, the reader on hostile
lines (only lines of the writer's shape, with the fields a per-line
json.loads reference reads from them), the dump hook's blocks against the
per-class extraction, and a live defense's verdicts against those of the
records it was dumped, read back from a clean file, from one with hostile
lines added, and with every block nudged by 1e-10 of itself."""

import base64
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from stdlens.config import load_config
from stdlens.engine import run_federation
from stdlens.forensics import GradientContribution, extract_class_gradient_block
from stdlens.metrics import build_defense, run_experiment, vary
from stdlens.replay import _write_records, read_stream, replay_stream, stream_dump_hook
from tests.conftest import make_tiny_config
from tests.test_detection import _model

CANONICAL = Path(__file__).resolve().parents[1] / "configs" / "class_poison.yaml"


def _reference_records(contributions) -> str:
    """Reference: one json.dumps(record, sort_keys=True) line per contribution."""
    return "".join(json.dumps({
        "round": int(g.round), "client_id": int(g.client_id),
        "class_id": int(g.class_id),
        "block": base64.b64encode(np.asarray(g.block, "<f8").tobytes()).decode("ascii"),
    }, sort_keys=True) + "\n" for g in contributions)


BLOCKS = pytest.mark.parametrize("block", [
    np.array([np.nan, np.inf, -np.inf]),
    np.array([-0.0, 0.0, 5e-324, -5e-324]),
    np.array([1e308, -1e308, 1.7976931348623157e308, 2.2250738585072014e-308]),
    np.array([0.1, 1 / 3, -2.5e-17, 123456789.123456789, 1e16, 1e-5]),
    np.array([3, -7, 0, 2 ** 53 + 1]),
], ids=["non-finite", "zeros-and-subnormals", "extremes", "ordinary", "int-dtype"])


def _contributions(block):
    return [GradientContribution(4, 17, 2, block),
            GradientContribution(np.int64(0), np.int64(3), np.int64(1), block)]


@BLOCKS
def test_record_bytes_match_the_sorted_key_reference(block):
    contributions = _contributions(block)
    fh = io.BytesIO()
    _write_records(fh, contributions)
    assert fh.getvalue() == _reference_records(contributions).encode()


@BLOCKS
@pytest.mark.parametrize("payload_nan", [False, True])
def test_blocks_read_back_bit_for_bit(block, payload_nan, tmp_path):
    if payload_nan:  # a quiet NaN whose payload is not the default one
        block = np.append(block, np.array([0x7FF8000000000001], np.uint64).view(float))
    path = tmp_path / "stream.jsonl"
    with open(path, "wb") as fh:
        _write_records(fh, _contributions(block))
    back = [g for contribs in read_stream(path) for g in contribs]
    expected = np.asarray(block, dtype=float).tobytes()
    assert [(g.round, g.client_id, g.class_id) for g in back] == [(3, 0, 1), (17, 4, 2)]
    assert all(g.block.dtype == np.float64 and g.block.tobytes() == expected
               for g in back)


def _reference_read(path):
    """Reference: the reader as one json.loads per line, as (client, round,
    class, block bytes) per kept record, grouped by round."""
    by_round = {}
    with open(path, "rb") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
                ids = rec["round"], rec["client_id"], rec["class_id"]
                block = np.frombuffer(base64.b64decode(rec["block"], validate=True),
                                      "<f8").astype(float)
            except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
                continue
            if all(type(v) is int for v in ids):
                by_round.setdefault(ids[0], []).append((ids[1], ids[0], ids[2],
                                                        block.tobytes()))
    return [by_round[r] for r in sorted(by_round)]


def _fields(stream):
    """(client, round, class, block bytes) of each record, grouped by round."""
    return [[(g.client_id, g.round, g.class_id, g.block.tobytes()) for g in contribs]
            for contribs in stream]


B64 = base64.b64encode(np.array([0.25, -1e300, 7.0]).tobytes())      # 32 characters, unpadded


def _line(block=B64, class_id=b"1", client_id=b"2", round_=b"3", end=b"\n"):
    return (b'{"block": "%s", "class_id": %s, "client_id": %s, "round": %s}%s'
            % (block, class_id, client_id, round_, end))


# (line, whether the reader keeps it: only a line of the writer's shape)
HOSTILE = pytest.mark.parametrize("line,kept", [
    (_line(class_id=b'"1"'), False),
    (_line(client_id=b"1.0"), False),
    (_line(round_=b"true"), False),
    (_line(class_id=b"01"), False),
    (_line(client_id=b"-0"), True),
    (_line(round_=b"%d" % 2 ** 63), True),
    (_line(client_id=b"%d" % (-2 ** 63 - 1)), True),
    # past the digit limit int() has from Python 3.10.7 on
    (_line(round_=b"9" * 5000), not hasattr(sys, "set_int_max_str_digits")),
    (_line(block=b"\\u0041" + B64[1:]), False),
    (_line(block=b"\\/" + B64[1:]), False),
    (_line(block=B64[:4] + b'\\"' + B64[4:]), False),
    (_line(block=B64[:4] + "\u00e9".encode() + B64[4:]), False),
    (_line(block=B64[:4] + b"\xff" + B64[4:]), False),
    (_line(block=base64.b64encode(bytes(959))), False),
    (_line(block=base64.b64encode(bytes(961))), False),
    (_line(block=b""), True),
    (_line(block=B64[:4] + b"=" + B64[5:]), False),
    (_line(block=B64 + b"=="), True),      # strict base64 allows excess padding
    (_line(end=b"\r\n"), False),
    (_line(end=b"   \n"), False),
    (b" " + _line(), False),
    (_line(round_=b'3, "round": 4'), False),
    (_line(block=b"A" * 12 + b'", "block": "' + B64), False),
    (_line(end=b""), True),
], ids=["string-id", "float-id", "bool-id", "leading-zero-id", "minus-zero-id",
        "2**63-id", "-2**63-1-id", "5000-digit-id", "escaped-letter", "escaped-slash",
        "escaped-quote", "non-ascii-character", "non-utf8-byte", "959-bytes", "961-bytes",
        "empty-block", "padding-inside", "excess-padding", "crlf-ending", "trailing-spaces",
        "leading-space", "repeated-round", "repeated-block", "no-final-newline"])


@HOSTILE
def test_the_reader_keeps_what_json_loads_keeps_line_by_line(line, kept, tmp_path):
    # a canonical line first, then the hostile one (last in the file, so a
    # line without a newline is the file's end). A line not of the writer's
    # shape is dropped, json.loads form or not; json.loads is the oracle for
    # the fields of a kept line.
    canonical = _line(class_id=b"0", client_id=b"5", round_=b"3")
    path = tmp_path / "stream.jsonl"
    path.write_bytes(canonical + (line if kept else b""))
    expected = _reference_read(path)
    path.write_bytes(canonical + line)
    stream = read_stream(path)
    assert _fields(stream) == expected
    assert all(type(v) is int and g.block.dtype == np.float64
               for contribs in stream for g in contribs
               for v in (g.client_id, g.round, g.class_id))


def _json_variants(line: bytes) -> list[bytes]:
    """Copies of a written line that json.loads reads as the same record,
    each in a JSON form the writer never produces: an escaped letter, an
    escaped slash, a CRLF ending, trailing spaces, a leading space, and a
    repeated round or block key whose first copy differs (json.loads keeps
    the last)."""
    n = len(b'{"block": "')
    escaped_slash = line.replace(b"/", b"\\/", 1)
    assert escaped_slash != line
    return [line[:n] + b"\\u%04x" % line[n] + line[n + 1:], escaped_slash,
            line[:-1] + b"\r\n", line[:-1] + b"   \n", b" " + line,
            re.sub(rb'"round": (\d+)}', rb'"round": 0, "round": \1}', line),
            b'{"block": "%s", ' % base64.b64encode(bytes(16)) + line[1:]]


MALFORMED = [b"\n", b"not a record\n", b"{}\n", b"\xff\xfe\n", b'{"block": "\n',
             b'{"block": "AAAAAAAAAAA=", "class_id": 0}\n']


def _dump_live(cfg, path):
    """A live run of `cfg` with its defense, its stream dumped to `path`;
    returns the live defense and the run log."""
    live = build_defense(cfg)
    dump = stream_dump_hook(path, cfg.task.num_classes)
    try:
        _, log = run_federation(cfg, live, stream_hook=dump, eval_every=cfg.federation.rounds)
    finally:
        dump.close()
    return live, log


@pytest.mark.parametrize("defense", ["stdlens", "spatial", "spectral"])
def test_hostile_lines_in_a_dumped_file_change_no_record_and_no_verdict(defense, tmp_path):
    cfg = vary(make_tiny_config(), defense=defense)
    clean = tmp_path / "clean.jsonl"
    live, log = _dump_live(cfg, clean)
    lines = clean.read_bytes().splitlines(keepends=True)
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_bytes(b"".join(MALFORMED + [b"".join(_json_variants(line)) + line + line[:99]
                                            + b"\n" for line in lines] + MALFORMED))
    stream = read_stream(dirty)
    assert _fields(stream) == _fields(read_stream(clean))
    events, verdicts = replay_stream(build_defense(cfg), stream)
    assert events == [(rec.round, cid) for rec in log.records for cid in rec.revocations]
    assert verdicts == {cid: "revoked" if cid in live.revoked else "active"
                        for cid in sorted(live.clients)}


def test_a_dumped_canonical_stream_matches_the_reference(tmp_path):
    cfg = load_config(CANONICAL)
    num_classes = cfg.task.num_classes
    path = tmp_path / "gradient_stream.jsonl"
    dump = stream_dump_hook(path, num_classes)
    reference = []

    def hook(round_idx, client_ids, deltas):
        dump(round_idx, client_ids, deltas)
        reference.append(_reference_records(
            GradientContribution(cid, round_idx, c,
                                 extract_class_gradient_block(_model(deltas, i), c))
            for i, cid in enumerate(client_ids) for c in range(num_classes)))

    try:
        run_experiment(cfg, stream_hook=hook, eval_every=cfg.federation.rounds)
    finally:
        dump.close()
    assert len(reference) == cfg.federation.rounds
    # line by line, naming the first differing record: the dump is ~10 MB,
    # and a failing whole-file compare takes minutes to report
    expected = "".join(reference).encode().splitlines(keepends=True)
    dumped = path.read_bytes().splitlines(keepends=True)
    first = next((i for i, (a, b) in enumerate(zip(dumped, expected)) if a != b), None)
    assert first is None, (f"line {first + 1} (round {json.loads(expected[first])['round']})"
                           f" differs: {dumped[first][:120]!r} != {expected[first][:120]!r}")
    assert len(dumped) == len(expected)


@pytest.mark.parametrize("defense", ["stdlens", "spatial", "spectral"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_rounds_and_their_dumped_records_get_the_same_verdicts(seed, defense,
                                                                     tmp_path):
    # one defense sees the live rounds through observe_round, a second the
    # dumped records read back, through observe_contributions
    cfg = vary(make_tiny_config(), defense=defense, seed=seed)
    path = tmp_path / "stream.jsonl"
    live, log = _dump_live(cfg, path)
    replayed = build_defense(cfg)
    stream = read_stream(path)
    assert [contribs[0].round for contribs in stream] == [r.round for r in log.records]
    for rec, contribs in zip(log.records, stream):
        revoked, watchlisted = replayed.observe_contributions(rec.round, contribs)
        assert (sorted(revoked), sorted(watchlisted)) == (rec.revocations,
                                                          rec.watchlist_events)
    assert replayed.revoked == live.revoked and replayed.clients == live.clients
    if defense == "stdlens":
        assert replayed.strikes == live.strikes


@pytest.mark.parametrize("poison", ["class", "bbox", "objn"])
def test_verdicts_hold_when_every_block_moves_by_1e_10_of_itself(poison, tmp_path):
    # every entry times (1 + 1e-10 u), u ~ U[-1, 1]: no threshold test of a
    # defense may sit that close to a tie on the canonical runs
    cfg = vary(load_config(CANONICAL), seed=1)
    cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, poison_type=poison))
    path = tmp_path / "stream.jsonl"
    _dump_live(cfg, path)
    stream = read_stream(path)
    rng = np.random.default_rng(0)
    nudged = [[dataclasses.replace(
        g, block=g.block * (1 + 1e-10 * rng.uniform(-1, 1, len(g.block))))
        for g in contribs] for contribs in stream]
    for defense in ("stdlens", "spatial", "spectral"):
        replayed = vary(cfg, defense=defense)
        assert (replay_stream(build_defense(replayed), nudged)
                == replay_stream(build_defense(replayed), stream)), defense
