import random
from fractions import Fraction as F

import pytest

from slflab.core import (
    Instance,
    InstanceError,
    Job,
    ReleaseTag,
    ceil_inv,
    parse_instance,
    parse_rat,
    rat_str,
    scale_instance,
    serialize_instance,
)

from .helpers import random_instance, toy_instance


def test_parse_rat_forms():
    assert parse_rat("1/2") == F(1, 2)
    assert parse_rat("5") == F(5)
    assert parse_rat("-3/4") == F(-3, 4)
    assert parse_rat("0.5") == F(1, 2)
    assert parse_rat("0.1") == F(1, 10)  # exact, not the binary float
    with pytest.raises(InstanceError):
        parse_rat("1/0")
    with pytest.raises(InstanceError):
        parse_rat("a/b")
    with pytest.raises(InstanceError):
        parse_rat("1.5e3")


ACCEPTED = [
    "0", "-0", "7", "-7", "007", "-007", "123456789012345678901234567890",
    "1/2", "-1/2", "3/6", "-3/6", "0/5", "-0/5", "007/3", "10/20", "1/1",
    "0.5", "-0.5", "00.50", "-0.0", "0.1", "12.000", "-3.125",
    " 1/2", "1/2 ", "\t-3/6\n", " 7 ", "\n0.25\t",
]
REJECTED = [
    "", " ", "1/0", "-1/0", "1/00", "1/01", "1/-2", "-1/-2", "+1", "+1/2",
    "--1", "1.", ".5", "-.5", "1.5e3", "1e3", "1/2.0", "1.0/2", "1 /2",
    "1/ 2", "- 1", "1/2/3", "0x10", "1_000", "a/b", "inf", "nan", "١",
]


def test_parse_rat_table():
    # an accepted literal has the exact value of Fraction's own parser on the
    # stripped text; the pattern is stricter than Fraction, which also takes
    # "+1", "1.", ".5", "1/01", "1_000" and non-ASCII digits
    for text in ACCEPTED:
        got = parse_rat(text)
        assert type(got) is F and got == F(text.strip()), text
    for text in REJECTED:
        with pytest.raises(InstanceError) as err:
            parse_rat(text)
        assert str(err.value) == f"not a rational literal: {text!r}"


def test_parse_rat_non_strings():
    assert parse_rat(3) == F(3) and parse_rat(-2) == F(-2)
    for value in (1.5, None, F(1, 2), b"1/2"):
        with pytest.raises(InstanceError):
            parse_rat(value)


def test_parse_instance_basic():
    inst = parse_instance('{"epsilon":"1/2","jobs":[{"id":1,"release":"0","size":"5"}]}')
    assert inst.epsilon == F(1, 2)
    assert inst.jobs[0].size == F(5)
    same = parse_instance('{"epsilon":"0.5","jobs":[{"id":1,"release":"0","size":"5"}]}')
    assert same.epsilon == inst.epsilon
    # decimals inside JSON numbers parse exactly too
    num = parse_instance('{"epsilon":0.1,"jobs":[]}')
    assert num.epsilon == F(1, 10)


def test_parse_instance_errors():
    with pytest.raises(InstanceError):
        parse_instance('{"epsilon":"2","jobs":[]}')
    with pytest.raises(InstanceError):
        parse_instance('{"epsilon":"1/2","jobs":[{"id":1,"release":"0","size":"-1"}]}')
    with pytest.raises(InstanceError):
        parse_instance(
            '{"epsilon":"1/2","jobs":[{"id":1,"release":"0","size":"1"},'
            '{"id":1,"release":"0","size":"2"}]}'
        )
    with pytest.raises(InstanceError):
        parse_instance("{not json")
    with pytest.raises(InstanceError):
        parse_instance('{"epsilon":"1/2","jobs":[{"id":1,"release":"-1","size":"1"}]}')


def test_roundtrip_exact():
    rng = random.Random(0)
    for _ in range(50):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(0, 8))
        assert parse_instance(serialize_instance(inst)) == inst


def test_roundtrip_undeclared_and_epoch():
    inst = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(1), 2), None), Job(2, ReleaseTag(F(0)), F(3))),
    )
    back = parse_instance(serialize_instance(inst))
    assert back == inst
    assert back.jobs[0].declared is False


def test_rat_str():
    assert rat_str(F(7, 2)) == "7/2"
    assert rat_str(F(4)) == "4"


def test_release_tag_order():
    assert ReleaseTag(F(1), 0) < ReleaseTag(F(1), 1) < ReleaseTag(F(2), 0)


def test_ceil_inv():
    assert ceil_inv(F(1, 2)) == 2
    assert ceil_inv(F(1, 3)) == 3
    assert ceil_inv(F(2, 3)) == 2
    assert ceil_inv(F(1)) == 1
    assert ceil_inv(F(9, 10)) == 2


def test_rat_arithmetic_agrees_with_cross_multiplication():
    rng = random.Random(1)
    for _ in range(200):
        a = F(rng.randint(-50, 50), rng.randint(1, 30))
        b = F(rng.randint(-50, 50), rng.randint(1, 30))
        c = F(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        # comparison via big-integer cross multiplication
        assert (a < b) == (a.numerator * b.denominator < b.numerator * a.denominator)


def test_scale_instance():
    inst = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(0)), F(5)), Job(2, ReleaseTag(F(1)), F(4))),
    )
    out = scale_instance(inst, F(1, 2))
    assert [j.size for j in out.jobs] == [F(5, 2), F(2)]
    assert [j.release for j in out.jobs] == [j.release for j in inst.jobs]
    assert scale_instance(inst, F(1)) == inst
    with pytest.raises(InstanceError):
        scale_instance(inst, F(0))


def test_scale_toy_by_one_minus_eps():
    out = scale_instance(toy_instance(), F(1, 2))
    assert [j.size for j in out.jobs] == [F(5, 2), F(2), F(3, 2), F(3, 2), F(1), F(1, 2)]
