"""Job/instance data model and exact-rational serialization.

All continuous quantities (times, sizes, rates) are `fractions.Fraction`
values; nothing in the package ever rounds. Decimal strings in input files
are parsed exactly (never through binary floats).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable

Rat = Fraction

_RAT_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$|-?[0-9]+\.[0-9]+$")


class InstanceError(ValueError):
    """Raised for malformed instances or rational literals."""


def parse_rat(text: str | int) -> Rat:
    """Parse "a/b", an integer string, or a finite decimal, exactly."""
    if isinstance(text, int):
        return Fraction(text)
    stripped = text.strip() if isinstance(text, str) else ""
    if not _RAT_RE.match(stripped):
        raise InstanceError(f"not a rational literal: {text!r}")
    # the pattern has validated the text: build from ints, which skips
    # Fraction's own string parser; only decimals go through it
    num, slash, den = stripped.partition("/")
    if slash:
        return Fraction(int(num), int(den))
    if "." in num:
        return Fraction(num)
    return Fraction(int(num))


def rat_str(x: Rat) -> str:
    """Canonical rat-string: "a" for integers, "a/b" otherwise."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def jsonable(value):
    """JSON form of a value: rat-strings for rationals, sorted lists for
    sets, lists for tuples, string keys for dicts."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, set):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def ceil_inv(epsilon: Rat) -> int:
    """The integer ceiling of 1/epsilon for epsilon in (0, 1]."""
    if epsilon <= 0:
        raise InstanceError("ceil(1/epsilon) needs epsilon > 0")
    return -((-epsilon.denominator) // epsilon.numerator)


@dataclass(frozen=True, order=True)
class ReleaseTag:
    """A release time with an epoch for "immediately after" semantics.

    Tags order lexicographically by (time, epoch); a positive epoch marks a
    job re-released at x-plus by a move operation. Epochs have zero duration,
    so simulation dynamics see only the time component.
    """

    time: Rat
    epoch: int = 0

    def __post_init__(self) -> None:
        # signs on the numerator: the denominator of a rational is positive
        if self.time.numerator < 0:
            raise InstanceError(f"negative release time {self.time}")
        if self.epoch < 0:
            raise InstanceError("negative release epoch")


@dataclass(frozen=True)
class Job:
    id: int
    release: ReleaseTag
    size: Rat | None  # None: adversary-controlled, size not yet fixed

    def __post_init__(self) -> None:
        if self.id <= 0:
            raise InstanceError(f"job id must be positive, got {self.id}")
        if self.size is not None and self.size.numerator <= 0:
            raise InstanceError(f"job {self.id}: size must be > 0")

    @property
    def declared(self) -> bool:
        return self.size is not None


@dataclass(frozen=True)
class Instance:
    epsilon: Rat
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.epsilon.numerator <= self.epsilon.denominator):
            raise InstanceError(f"epsilon {self.epsilon} outside [0,1]")
        by_id = {j.id: j for j in self.jobs}
        if len(by_id) != len(self.jobs):
            raise InstanceError("duplicate job ids")
        # outside the fields, so equality and repr are unchanged
        object.__setattr__(self, "_by_id", by_id)

    def _key(self) -> tuple:
        """eps and every job's fields as integers (None for an undeclared size)."""
        key: list = [self.epsilon.numerator, self.epsilon.denominator]
        for j in self.jobs:
            t, p = j.release.time, j.size
            sized = (None, None) if p is None else (p.numerator, p.denominator)
            key.append((j.id, t.numerator, t.denominator, j.release.epoch, *sized))
        return tuple(key)

    @cached_property
    def _hash(self) -> int:
        # taken on first use only: schedule caches key on instances, but most
        # instances are never hashed; the key itself is not kept
        return hash(self._key())

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # field-wise equality, tested on integers; a hash mismatch settles
        # most unequal pairs without building either key
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key() == other._key()

    def job(self, job_id: int) -> Job:
        return self._by_id[job_id]

    @property
    def all_declared(self) -> bool:
        return all(j.declared for j in self.jobs)

    def with_jobs(self, jobs: Iterable[Job]) -> "Instance":
        return Instance(self.epsilon, tuple(jobs))


def parse_instance(text: str) -> Instance:
    """Parse the instance JSON document (see README for the schema)."""
    try:
        doc = json.loads(text, parse_float=Fraction, parse_int=int)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "epsilon" not in doc or "jobs" not in doc:
        raise InstanceError("instance document needs 'epsilon' and 'jobs'")
    eps = as_rat(doc["epsilon"], "epsilon")
    if not isinstance(doc["jobs"], list):
        raise InstanceError("'jobs' must be a list")
    jobs = []
    for entry in doc["jobs"]:
        if not isinstance(entry, dict):
            raise InstanceError("job entries must be objects")
        unknown = set(entry) - {"id", "release", "size", "epoch"}
        if unknown:
            raise InstanceError(f"unknown job fields: {sorted(unknown)}")
        jid = entry.get("id")
        if type(jid) is not int:  # bool is an int subclass
            raise InstanceError("job id must be an integer")
        release = as_rat(entry.get("release", 0), f"job {jid} release")
        epoch = entry.get("epoch", 0)
        if type(epoch) is not int:
            raise InstanceError(f"job {jid}: epoch must be an integer")
        raw_size = entry.get("size")
        size = None if raw_size is None else as_rat(raw_size, f"job {jid} size")
        jobs.append(Job(jid, ReleaseTag(release, epoch), size))
    return Instance(eps, tuple(jobs))


def as_rat(value, what: str) -> Rat:
    """A JSON number (read with parse_float=Fraction) or rat-string, exactly."""
    if isinstance(value, Fraction):  # exact decimal via parse_float
        return value
    if isinstance(value, bool):
        raise InstanceError(f"{what}: not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rat(value)
        except InstanceError as exc:
            raise InstanceError(f"{what}: {exc}") from exc
    raise InstanceError(f"{what}: not a rational: {value!r}")


def serialize_instance(inst: Instance, meta: dict | None = None) -> str:
    doc: dict = {
        "epsilon": rat_str(inst.epsilon),
        "jobs": [
            {
                "id": j.id,
                "release": rat_str(j.release.time),
                "size": None if j.size is None else rat_str(j.size),
                **({"epoch": j.release.epoch} if j.release.epoch else {}),
            }
            for j in inst.jobs
        ],
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=2)


def scale_instance(inst: Instance, factor: Rat) -> Instance:
    """Multiply every size by `factor`; releases and epsilon unchanged."""
    if factor <= 0:
        raise InstanceError("scale factor must be > 0")
    # a list, not a generator: see the tuple free-list note in `sim.simulate`
    return inst.with_jobs(
        [replace(j, size=None if j.size is None else j.size * factor) for j in inst.jobs]
    )
