import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_makes_the_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(5, tmp_path / "a")
    second = cls(5, tmp_path / "b")
    other = cls(6, tmp_path / "c")
    for w in (first, second, other):
        w.workdir.mkdir()
    digest = first.prepare()
    assert digest == second.prepare()
    assert digest != other.prepare()


def test_repeated_op_reproduces_its_digest(tmp_path):
    w = workloads.SyntheticStreams(3, tmp_path)
    w.prepare()
    a, b, c = w.op(0), w.op(w.cycle), w.op(1)
    assert a.digest == b.digest != c.digest
    assert a.rounds == 2 * w.ROUNDS


def test_derive_is_stable():
    assert workloads.derive(1, "fed-defended", 0) == workloads.derive(1, "fed-defended", 0)
    assert workloads.derive(1, "fed-defended", 0) != workloads.derive(2, "fed-defended", 0)
