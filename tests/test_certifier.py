import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from slflab import certifier
from slflab.assignment import EMPTY_GRAPH, graph, graph_to_json, prefix_expansion, scale
from slflab.certifier import (
    Certificate,
    CounterexampleError,
    check_t_equivalence,
    compute_work_split,
    create_valid_assignment,
    move_jobs,
    update_valid_assignment,
    verify_certificate,
    _advance,
    _plan,
    _sched,
    _snapshot,
)
from slflab.core import Instance, Job, ReleaseTag, parse_instance, serialize_instance
from slflab.sim import simulate, state_at
from .helpers import random_instance, staggered_instance, toy_instance


def test_move_jobs():
    inst = Instance(
        F(1, 2),
        (
            Job(1, ReleaseTag(F(1)), F(2)),
            Job(2, ReleaseTag(F(2)), F(2)),
            Job(3, ReleaseTag(F(3)), F(2)),
        ),
    )
    assert move_jobs(inst, F(4), F(5)) == inst
    out = move_jobs(inst, F(0), F(2))
    tags = {j.id: j.release for j in out.jobs}
    assert tags[1] == ReleaseTag(F(0), 1)
    assert tags[2] == ReleaseTag(F(0), 2)
    assert tags[3] == ReleaseTag(F(3), 0)
    # jobs already at the target's plus-epochs are not re-moved
    again = move_jobs(out, F(0), F(2))
    assert again == out
    with pytest.raises(ValueError):
        move_jobs(inst, F(3), F(2))


def _equivalent_by_walk(a: Instance, b: Instance, t) -> bool:
    """Reference t-equivalence: elapsed work summed over every SLF segment
    from time 0; a job is in the active set when it is released by plain
    time t (tags re-released to t-plus are out) and not complete."""

    def walk(inst):
        elapsed: dict = {}
        for seg in simulate(inst, "slf").segments:
            dur = min(seg.end, t) - seg.start
            if dur > 0:
                for jid, rate in seg.rates.items():
                    elapsed[jid] = elapsed.get(jid, F(0)) + rate * dur
        active = {
            j.id
            for j in inst.jobs
            if (j.release.time < t or (j.release.time == t and j.release.epoch == 0))
            and elapsed.get(j.id, F(0)) < j.size
        }
        return active, elapsed

    (act_a, el_a), (act_b, el_b) = walk(a), walk(b)
    return act_a == act_b and all(
        el_a.get(j.id, F(0)) == el_b.get(j.id, F(0)) for j in a.jobs
    )


def test_t_equivalence_matches_walk():
    # a job moved early that completes by t: the plain-time active sets differ
    inst = Instance(
        F(1, 2), (Job(1, ReleaseTag(F(0)), F(1)), Job(2, ReleaseTag(F(2)), F(1)))
    )
    moved = move_jobs(inst, F(0), F(2))
    assert _sched(moved, "slf").completions[2] <= 2
    assert not check_t_equivalence(inst, moved, F(2))
    assert check_t_equivalence(inst, moved, F(0))

    rng = random.Random(42)
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(1, 7))
        releases = sorted({j.release.time for j in inst.jobs} | {F(0)})
        x = rng.choice(releases)
        y = rng.choice([r for r in releases if r >= x])
        moved = move_jobs(inst, x, y)
        times = sorted(
            set(_sched(inst, "slf").boundaries()) | set(_sched(moved, "slf").boundaries())
        )
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
        for t in probes:
            got = check_t_equivalence(inst, moved, t)
            assert got == _equivalent_by_walk(inst, moved, t), (inst, x, y, t)
            verdicts[got] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_toy_work_split():
    inst = toy_instance()
    ws = compute_work_split(inst, F(0), F(9), {1, 2, 3, 4, 5, 6})
    # every work in the instance's unit W: the time value times ws.unit
    W = ws.unit
    assert W == _sched(inst, "slf").run.wu
    assert ws.gamma == F(3, 2) * W
    assert [ws.delta[i] for i in range(1, 7)] == [
        w * W for w in (F(0), F(0), F(3, 2), F(3, 2), F(2), F(1))
    ]
    assert [ws.tau[i] for i in range(1, 7)] == [
        w * W for w in (F(3, 2), F(3, 2), F(0), F(0), F(0), F(0))
    ]
    assert [ws.tau_star[i] for i in range(1, 7)] == [
        w * W for w in (F(0), F(0), F(3, 2), F(3, 2), F(0), F(0))
    ]
    assert ws.nu == 0 and ws.nu_star == 0
    assert ws.O_plus == {1, 2} and ws.A_plus == {3, 4} and ws.D_ell == {5, 6}
    assert ws.last_opt_touched == 4


def test_work_split_degenerate_window():
    inst = toy_instance()
    ws = compute_work_split(inst, F(0), F(0), {1, 2, 3, 4, 5, 6})
    assert all(v == 0 for v in ws.delta.values())
    assert ws.nu == 0 and ws.nu_star == 0


def test_work_split_fact_identity_random():
    rng = random.Random(40)
    done = 0
    for _ in range(200):
        eps = F(rng.randint(1, 9), 10)
        inst = random_instance(rng, eps, rng.randint(2, 8))
        first = min(j.release.time for j in inst.jobs)
        batch = {j.id for j in inst.jobs if j.release.time == first}
        sched = _sched(inst, "slf")
        leader = min(batch, key=lambda i: (-inst.job(i).size, i))
        ell = None
        for seg in sched.segments:
            if leader in seg.rates:
                ell = seg.end
                break
        if ell is None or any(first < j.release.time < ell for j in inst.jobs):
            continue
        try:
            ws = compute_work_split(inst, first, ell, batch)
        except CounterexampleError:
            continue
        window = (ell - first) * ws.unit  # in the instance's unit W
        assert window == ws.delta_total + ws.tau_total + ws.nu
        assert window == ws.delta_total + ws.tau_star_total + ws.nu_star
        done += 1
    assert done > 50


def test_update_reproduces_worked_figure():
    inst = toy_instance()
    out = update_valid_assignment(inst, {1, 2, 3, 4, 5, 6}, F(0), F(9), EMPTY_GRAPH)
    assert dict(out.weights) == {
        (1, 1): F(7, 2),
        (2, 2): F(5, 2),
        (3, 1): F(3, 2),
        (4, 2): F(3, 2),
    }
    assert prefix_expansion(out) == 2


def test_update_in_time_matches_the_step_in_W():
    # the public update takes and returns time; the certificate step calls
    # its core in the instance's unit W and keeps its graphs in W: replayed
    # on the fast-forward steps of seeded certificates whose sigma has
    # edges, the two give one graph
    rng = random.Random(53)
    compared = 0
    for _ in range(30):
        inst = random_instance(rng, F(1, 3), rng.randint(3, 8))
        cert = create_valid_assignment(inst, _event_times(inst)[-1])
        cur = inst
        for r in cert.transcript:
            if r.case == "move":
                last = max(inst.job(j).release.time for j in r.details["jobs"])
                cur = move_jobs(cur, r.s, last)
            elif r.case.startswith("fast-forward"):
                sigma, W = certifier._canonical_at(cur, r.s)
                if not sigma.weights:
                    continue
                ws = compute_work_split(cur, r.s, r.s_next, r.details["batch"])
                in_w = certifier._update(cur, r.s, ws, sigma)
                in_time = update_valid_assignment(
                    cur, r.details["batch"], r.s, r.s_next, scale(sigma, F(1, W))
                )
                assert all(type(w) is int for w in in_w.weights.values())
                assert all(type(w) is F for w in in_time.weights.values())
                assert scale(in_w, F(1, W)) == in_time
                compared += 1
    assert compared >= 3, compared


def test_update_degenerate_batch():
    # the batch is completed by both schedulers before ell
    inst = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(0)), F(1)), Job(2, ReleaseTag(F(2)), F(4))),
    )
    out = update_valid_assignment(inst, {1}, F(0), F(1), EMPTY_GRAPH)
    assert out.is_empty()


def test_create_toy_certificate():
    inst = toy_instance()
    cert = create_valid_assignment(inst, F(9))
    assert cert.assignment.valid and cert.assignment.phi == 2
    rep = verify_certificate(cert)
    assert rep.passed, rep.checks


def test_create_trivial_cases():
    one = Instance(F(1, 2), (Job(1, ReleaseTag(F(0)), F(4)),))
    cert = create_valid_assignment(one, F(2))
    assert cert.assignment.phi == 1
    assert verify_certificate(cert).passed
    # before anything is released
    cert0 = create_valid_assignment(one, F(0))
    assert verify_certificate(cert0).passed
    # eps = 1 short-circuits to the identity assignment
    clair = Instance(F(1), (Job(1, ReleaseTag(F(0)), F(4)), Job(2, ReleaseTag(F(1)), F(1))))
    cert1 = create_valid_assignment(clair, F(2))
    assert cert1.transcript[0].case == "identity"
    assert cert1.assignment.phi <= 1
    assert verify_certificate(cert1).passed


def test_create_staggered_instance_moves_batch():
    inst = staggered_instance()
    cert = create_valid_assignment(inst, F(23))
    assert verify_certificate(cert).passed
    moves = [r for r in cert.transcript if r.case == "move"]
    assert moves and moves[0].details["jobs"] == (3, 4)
    tags = {j.id: j.release for j in cert.transformed.jobs}
    assert tags[3].time == F(0) and tags[3].epoch > 0
    assert tags[4].time == F(0) and tags[4].epoch > 0


def test_equivalence_checks():
    inst = staggered_instance()
    assert check_t_equivalence(inst, inst, F(7))
    # the early-arriving move at the leader-touch time keeps equivalence
    moved = move_jobs(inst, F(0), F(5))
    assert check_t_equivalence(inst, moved, F(11)) # leader still unknown there
    # moving a release past a time where the batch was already absorbed into
    # a known run generally breaks equivalence: negative control
    bad = move_jobs(
        Instance(
            F(1, 2),
            (
                Job(1, ReleaseTag(F(0)), F(2)),
                Job(2, ReleaseTag(F(3)), F(4)),
            ),
        ),
        F(0),
        F(3),
    )
    orig = Instance(
        F(1, 2),
        (Job(1, ReleaseTag(F(0)), F(2)), Job(2, ReleaseTag(F(3)), F(4))),
    )
    assert not check_t_equivalence(orig, bad, F(3))
    # srpt-like (eps = 1): job 2 moved from 1 to 0-plus waits behind job 1, so
    # at t = 1 it is active on both sides only because its original release
    # is (1, epoch 0)
    late = Instance(F(1), (Job(1, ReleaseTag(F(0)), F(2)), Job(2, ReleaseTag(F(1)), F(5))))
    early = move_jobs(late, F(0), F(1))
    assert _sched(early, "slf").elapsed_at(F(1)).get(2, F(0)) == 0
    assert check_t_equivalence(late, early, F(1))


def test_tampered_certificate_fails():
    inst = toy_instance()
    cert = create_valid_assignment(inst, F(9))
    h = cert.assignment.graph
    (edge, w), *_ = sorted(h.weights.items())
    tampered = graph(h.left, h.right, {**h.weights, edge: w + F(1, 7)})
    bad = Certificate(
        cert.original,
        cert.transformed,
        cert.target_time,
        replace(cert.assignment, graph=tampered),
        cert.transcript,
    )
    rep = verify_certificate(bad)
    assert not rep.passed and not rep.checks["marginals"]


def test_late_or_resized_transformed_job_is_not_early_arriving():
    inst = staggered_instance()
    cert = create_valid_assignment(inst, F(23))
    assert verify_certificate(cert).checks["early-arriving"]

    def tampered(job_id, **fields):
        jobs = (replace(j, **fields) if j.id == job_id else j for j in cert.transformed.jobs)
        return replace(cert, transformed=cert.transformed.with_jobs(jobs))

    # job 2 released at 1 instead of 0; job 1 with size 6 instead of 5
    for bad in (tampered(2, release=ReleaseTag(F(1))), tampered(1, size=F(6))):
        rep = verify_certificate(bad)
        assert not rep.passed and not rep.checks["early-arriving"]


def test_certificates_random_quick():
    rng = random.Random(41)
    for _ in range(25):
        eps = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)])
        inst = random_instance(rng, eps, rng.randint(1, 7))
        times = sorted(
            set(_sched(inst, "slf").boundaries())
            | set(_sched(inst, "srpt").boundaries())
        )
        for t in times:
            cert = create_valid_assignment(inst, t)
            assert verify_certificate(cert).passed
            # every move happens at most once per job
            moved = [
                i for r in cert.transcript if r.case == "move" for i in r.details["jobs"]
            ]
            assert len(moved) == len(set(moved))


def test_certificate_json_roundtrip():
    import json

    cert = create_valid_assignment(toy_instance(), F(9))
    doc = json.loads(cert.to_json_str())
    assert doc["phi"] == "2"
    assert doc["valid"] is True
    assert {e["l"] for e in doc["assignment"]["edges"]} == {1, 2, 3, 4}


def _event_times(inst):
    return sorted(
        set(_sched(inst, "slf").boundaries()) | set(_sched(inst, "srpt").boundaries())
    )


def _summary(cert):
    """What a certificate says: the moved instance, phi, the graph and the
    transcript, as comparable values."""
    return (
        cert.transformed,
        cert.assignment.phi,
        graph_to_json(cert.assignment.graph),
        [r.to_json() for r in cert.transcript],
    )


def _clear_step_caches():
    _plan.cache_clear()
    _advance.cache_clear()
    _snapshot.cache_clear()


def test_step_memo_matches_fresh_builds():
    # criterion-5 shape: n in 1..12, eps = 1 included
    rng = random.Random(46)
    eps_choices = [F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1)]
    shared = 0
    for k in range(10):
        inst = random_instance(rng, eps_choices[k % len(eps_choices)], rng.randint(1, 12))
        times = _event_times(inst)
        fresh = {}
        for t in times:
            _clear_step_caches()
            fresh[t] = _summary(create_valid_assignment(inst, t))
        shuffled = rng.sample(times, len(times))
        for order in (times, times[::-1], shuffled):
            _clear_step_caches()
            for t in order:
                assert _summary(create_valid_assignment(inst, t)) == fresh[t], (inst, t)
            shared += _advance.cache_info().hits
    assert shared > 0
    _clear_step_caches()
    assert _snapshot.cache_info().currsize == 0


def test_srpt_unit_that_does_not_divide_W_raises(monkeypatch):
    # the step puts srpt's works in slf's unit W by checking that srpt's
    # `wu` divides W, not by assuming it
    inst = toy_instance()
    W = _sched(inst, "slf").run.wu
    opt = _sched(inst, "srpt")
    assert W % opt.run.wu == 0
    _clear_step_caches()
    monkeypatch.setattr(opt, "run", opt.run._replace(wu=2 * W))
    try:
        with pytest.raises(CounterexampleError) as err:
            create_valid_assignment(inst, F(9))
        assert err.value.check == "work-unit"
        assert err.value.context == {"W": W, "srpt": 2 * W}
    finally:
        monkeypatch.undo()
        _clear_step_caches()
    assert verify_certificate(create_valid_assignment(inst, F(9))).passed


def test_snapshot_is_read_only():
    inst = staggered_instance()
    snap = _snapshot(inst, "slf", F(5))
    assert snap.before.keys() < snap.states.keys()  # the batch at 5 is out
    for view in (snap.elapsed, snap.states, snap.before):
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = view[key]
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(AttributeError):
            view.pop(key)
    # a second read is the same shared entry, unchanged
    assert _snapshot(inst, "slf", F(5)) is snap


def test_transcript_records_are_read_only():
    # targets 20 and 23 take the same move and fast-forward steps, so their
    # transcripts hold the step cache's records themselves
    inst = staggered_instance()
    a = create_valid_assignment(inst, F(20)).transcript
    b = create_valid_assignment(inst, F(23)).transcript
    assert [r.case for r in a] == ["move", "fast-forward-knowledge", "known-run"]
    assert a[0] is b[0] and a[1] is b[1] and a[2] is not b[2]
    assert a[0].details["jobs"] == (3, 4) and a[1].details["batch"] == (1, 2, 3, 4)
    for record in a:
        with pytest.raises(AttributeError):
            record.s_next = record.s
        key = next(iter(record.details))
        with pytest.raises(TypeError):
            record.details[key] = record.details[key]
        with pytest.raises(TypeError):
            del record.details[key]


def _in_time(view, unit):
    """A snapshot view's states with their works over the snapshot's unit."""
    return {
        i: replace(st, elapsed=F(st.elapsed, unit), remaining=F(st.remaining, unit))
        for i, st in view.items()
    }


def test_snapshot_matches_state_at():
    # criterion-5 shape: n in 1..12, eps = 1 included; every boundary of
    # either schedule and every release time, both policies, both views, the
    # snapshot's works over its unit (the run's wu) against the time queries
    rng = random.Random(48)
    eps_choices = [F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1)]
    checked = 0
    for k in range(14):
        inst = random_instance(rng, eps_choices[k % len(eps_choices)], rng.randint(1, 12))
        times = sorted(set(_event_times(inst)) | {j.release.time for j in inst.jobs})
        for policy in ("slf", "srpt"):
            sched = _sched(inst, policy)
            for t in times:
                snap = _snapshot(inst, policy, t)
                unit = snap.unit
                assert unit == sched.run.wu
                assert {i: F(e, unit) for i, e in snap.elapsed.items()} == sched.elapsed_at(t)
                want = state_at(sched, inst, t)
                assert _in_time(snap.states, unit) == want, (inst, t)
                # right before the batch at t: the jobs released before t
                pre = {i: st for i, st in want.items() if inst.job(i).release.time < t}
                assert _in_time(snap.before, unit) == pre, (inst, t)
                assert (snap.before is snap.states) == (pre == want), (inst, t)
                checked += 1
    assert checked > 500


def test_warm_step_cache_keeps_per_target_checks(monkeypatch):
    # an instance whose batch leader pauses at a last touch before t, so the
    # next iteration's Inv1 window watches the (still unknown) leader
    rng = random.Random(47)
    for _ in range(200):
        inst = random_instance(rng, F(rng.randint(1, 9), 10), rng.randint(2, 8))
        times = _event_times(inst)
        warm = {t: create_valid_assignment(inst, t) for t in times}
        paused = [
            (t, r.details["leader"])
            for t, cert in warm.items()
            for r in cert.transcript
            if r.case == "fast-forward-last-touch" and r.s_next < t
        ]
        if paused:
            break
    else:
        pytest.fail("no instance with a leader paused before its target")
    t_bad, leader = paused[0]

    real = certifier.touched_jobs

    def touched(sched, start, end):
        out = real(sched, start, end)
        return out | {leader} if end == t_bad else out

    monkeypatch.setattr(certifier, "touched_jobs", touched)
    misses = (_plan.cache_info().misses, _advance.cache_info().misses)
    for t in times:
        if t == t_bad:
            with pytest.raises(CounterexampleError) as err:
                create_valid_assignment(inst, t)
            assert err.value.check == "Inv1-magical"
            assert leader in err.value.context["touched"]
        else:
            assert _summary(create_valid_assignment(inst, t)) == _summary(warm[t])
    # every step came from the warm caches
    assert (_plan.cache_info().misses, _advance.cache_info().misses) == misses


def test_inv1_walks_no_window_without_unknown_jobs(monkeypatch):
    inst = staggered_instance()
    alg = _sched(inst, "slf")
    walks = []

    def touched(sched, start, end):
        walks.append((start, end))
        return {1, 2}

    monkeypatch.setattr(certifier, "touched_jobs", touched)
    certifier._check_magical(alg, F(0), F(9), ())  # vacuous: nothing to walk
    assert walks == []
    with pytest.raises(CounterexampleError) as err:
        certifier._check_magical(alg, F(0), F(9), (2, 3))
    assert err.value.check == "Inv1-magical" and err.value.context["touched"] == [2]
    assert walks == [(F(0), F(9))]


def test_certificate_carries_the_cached_instance(monkeypatch):
    compares = []
    real_eq = Instance.__eq__

    def counting_eq(a, b):
        if a is not b:
            compares.append(1)
        return real_eq(a, b)

    rng = random.Random(29)
    inst = random_instance(rng, F(1, 3), 8)
    text = serialize_instance(inst)
    times = [t for t in _event_times(inst) if t > 0]
    monkeypatch.setattr(Instance, "__eq__", counting_eq)
    for warm in (False, True):
        for t in times:
            fresh = parse_instance(text)
            compares.clear()
            cert = create_valid_assignment(fresh, t)
            assert verify_certificate(cert).passed
            # the parsed copy is compared once, by the schedule cache; the
            # construction's moved copies are the cache's own, so the steps
            # and the verification find every instance by identity
            if warm:
                assert len(compares) <= 2, (t, len(compares))
            assert cert.original is _sched(fresh, "slf").instance
            assert cert.original == fresh and cert.original is not fresh


def _walked_known_run_stop(alg, inst, s):
    """The known-run stop by a walk: the solo segments from the one holding
    s, up to the first whose job is not known at s; s when there is none."""
    known_now = {i for i, st in state_at(alg, inst, s).items() if st.known}
    stop = s
    for seg in alg.segments:
        if seg.end <= s:
            continue
        if len(seg.jobs) != 1 or seg.jobs[0] not in known_now:
            break
        stop = seg.end
    return stop


def test_known_run_stop_matches_the_segment_walk():
    # `_plan` bisects `known_runs` for the run holding s; at every slf
    # boundary with no batch and a non-empty queue it stops where the walk
    # does, on random instances and on instances whose jobs were moved to
    # an epoch at x-plus, as `create_valid_assignment` moves them
    rng = random.Random(23)
    compared = empty = 0
    for trial in range(120):
        eps = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10)])
        inst = random_instance(rng, eps, rng.randint(1, 8))
        if trial % 2:
            times = sorted({F(0)} | {j.release.time for j in inst.jobs})
            x = rng.choice(times)
            inst = move_jobs(inst, x, rng.choice([y for y in times if y >= x]))
        alg = simulate(inst, "slf")
        for s in alg.boundaries():
            snap = _snapshot(inst, "slf", s)
            if snap.states.keys() != snap.before.keys() or not snap.states:
                continue  # a batch at s, or an idle queue
            want = _walked_known_run_stop(alg, inst, s)
            if want == s:
                with pytest.raises(CounterexampleError) as err:
                    _plan(inst, inst, s)
                assert err.value.check == "known-run-empty"
                empty += 1
            else:
                plan = _plan(inst, inst, s)
                assert (plan.case, plan.stop) == ("known-run", want), (inst, s)
            compared += 1
    assert compared > 500 and empty, (compared, empty)


# sha256 of each certificate's JSON and of its verification report's JSON
PINNED_CERTIFICATES = {
    ("toy", F(9)): (
        "16f0fcd109e4be12a3147374a99ab0095a46350692873dbb80079ba612e6ba17",
        "9b8f1753054267cfb4d2584e09f6b0ef05c02982098a236ed199594fc7c8034e",
    ),
    ("staggered", F(20)): (
        "15b10cbb05ef0f54abdb8547a3358e900f8865485acdad5f7a12222bbad53854",
        "870f4b1de89dc608aa89120490c56124bfe98d2051c1fb6fc30ab7616a094a6f",
    ),
    ("staggered", F(23)): (
        "171d512fcae21bcd78c144812f20aa2a106ec0752fcab08a0863aff234bc7f7b",
        "b72a5c5bcf2f38bb63cc58af559bbcf4d1b75bef0304469f88af785e1789dc72",
    ),
}
# the same two digests, each taken over the seeded pairs of
# test_pinned_random_certificate_bytes in turn
PINNED_RANDOM_CERTIFICATES = (
    "f832072a78fa243102ee422a398f9711bb1c36b21e73c75beebb8ff595f8926f",
    "57df54dc72bbaebac625d7f8f9e6c1f8add8ab0745d14cd12e3818e37f8429a5",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_certificate_bytes():
    # the certificate's edge weights are in time units, as its JSON says
    # (toy at 9: 7/2, 3/2, 1, 3/2, 3/2), whatever unit the step works in
    instances = {"toy": toy_instance(), "staggered": staggered_instance()}
    for (name, t), want in PINNED_CERTIFICATES.items():
        cert = create_valid_assignment(instances[name], t)
        got = (_sha256(cert.to_json_str()), _sha256(verify_certificate(cert).to_json_str()))
        assert got == want, (name, t)


def test_pinned_random_certificate_bytes():
    # criterion-5 shape: n in 1..12, eps = 1 included, two event times each
    rng = random.Random(50)
    eps_choices = [F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1)]
    certs, reports = hashlib.sha256(), hashlib.sha256()
    cases = set()
    pairs = 0
    for k in range(10):
        inst = random_instance(rng, eps_choices[k % len(eps_choices)], rng.randint(1, 12))
        for t in rng.sample(_event_times(inst), 2):
            cert = create_valid_assignment(inst, t)
            certs.update(cert.to_json_str().encode())
            reports.update(verify_certificate(cert).to_json_str().encode())
            cases.update(r.case for r in cert.transcript)
            pairs += 1
    assert pairs == 20 and {"move", "fast-forward-last-touch", "identity"} <= cases, cases
    assert (certs.hexdigest(), reports.hexdigest()) == PINNED_RANDOM_CERTIFICATES
