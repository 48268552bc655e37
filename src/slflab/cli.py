"""Command-line front end.

Exit codes: 0 success, 1 property/verification failure or broken invariant,
2 input error.
Batch commands fan out over a process pool (--jobs) and merge results in
input order, so outputs are reproducible from (inputs, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .adversary import (
    deterministic_lb_run,
    exp_simultaneous_sample,
    lb_statistics,
    phase_lb_sample,
    randomized_lb_sample,
    sampler_meta,
)
from .assignment import AssignmentError
from .certifier import (
    CounterexampleError,
    create_valid_assignment,
    verify_certificate,
)
from .core import (
    Instance,
    InstanceError,
    as_rat,
    ceil_inv,
    jsonable,
    parse_instance,
    parse_rat,
    rat_str,
    serialize_instance,
)
from .metrics import (
    local_competitiveness,
    plot_data_csv,
    total_flow_time,
)
from .reduction import reduction_check
from .sim import (
    EMPTY_INTERVALS,
    IntervalSet,
    SimulationError,
    export_events_jsonl,
    export_segments_csv,
    simulate,
)

INPUT_ERROR = 2
CHECK_FAILED = 1


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(Path(path).read_text())
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def _load_forbidden(path: str | None) -> IntervalSet:
    if path is None:
        return EMPTY_INTERVALS
    doc = json.loads(Path(path).read_text(), parse_float=Fraction)
    windows = doc.get("intervals") if isinstance(doc, dict) else None
    if not isinstance(windows, list) or not all(
        isinstance(w, list) and len(w) == 2 for w in windows
    ):
        raise InstanceError("forbidden file needs an 'intervals' list of [start, end] pairs")
    pairs = [(as_rat(a, "window start"), as_rat(b, "window end")) for a, b in windows]
    for a, b in pairs:
        if not 0 <= a < b:
            raise InstanceError(
                f"forbidden window [{rat_str(a)}, {rat_str(b)}) needs 0 <= start < end"
            )
    return IntervalSet.from_pairs(pairs)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    inst = _load_instance(args.instance)
    if args.epsilon is not None:
        inst = Instance(parse_rat(args.epsilon), inst.jobs)
    forbidden = _load_forbidden(args.forbidden)
    sched = simulate(
        inst, args.policy, speed=parse_rat(args.speed), forbidden=forbidden
    )
    out = _outdir(args)
    (out / "schedule.csv").write_text(export_segments_csv(sched))
    (out / "events.jsonl").write_text(export_events_jsonl(sched))
    metrics = {"policy": args.policy, "epsilon": rat_str(inst.epsilon)}
    if inst.jobs and all(j.id in sched.completions for j in inst.jobs):
        flow = total_flow_time(sched, inst)
        metrics["flow"] = rat_str(flow)
        metrics["flow_decimal"] = float(flow)
    else:
        metrics["flow"] = rat_str(Fraction(0)) if not inst.jobs else None
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_compare(args) -> int:
    inst = _load_instance(args.instance)
    if args.epsilon is not None:
        inst = Instance(parse_rat(args.epsilon), inst.jobs)
    if inst.epsilon <= 0:
        raise InstanceError("compare needs epsilon > 0")
    rho = Fraction(ceil_inv(inst.epsilon))
    alg = simulate(inst, "slf")
    opt = simulate(inst, "srpt")
    report = local_competitiveness(alg, opt, rho)
    flow_alg = total_flow_time(alg, inst) if inst.jobs else Fraction(0)
    flow_opt = total_flow_time(opt, inst) if inst.jobs else Fraction(0)
    out = _outdir(args)
    if inst.jobs:
        (out / "report.json").write_text(report.to_json(flow_alg, flow_opt))
        (out / "counts.csv").write_text(plot_data_csv(report))
        print(report.to_json(flow_alg, flow_opt))
    else:
        print(json.dumps({"local_ok": True, "ratio": "1"}))
    return 0 if report.passed else CHECK_FAILED


def cmd_certify(args) -> int:
    inst = _load_instance(args.instance)
    t = parse_rat(args.time)
    if t < 0:
        raise InstanceError("target time must be >= 0")
    out = _outdir(args)
    try:
        cert = create_valid_assignment(inst, t)
        report = verify_certificate(cert)
    # input is validated before these can raise, so each is a broken
    # lemma check or engine invariant, not bad input
    except (CounterexampleError, AssignmentError, SimulationError) as exc:
        if isinstance(exc, CounterexampleError):
            check, context = exc.check, exc.context
        else:
            check, context = type(exc).__name__, {"message": str(exc)}
        # an instance file: `certify counterexample.json --time T` replays it
        meta = {
            "kind": "counterexample",
            "check": check,
            "time": rat_str(t),
            "context": jsonable(context),
        }
        (out / "counterexample.json").write_text(serialize_instance(inst, meta=meta))
        print(f"certificate failed: {check}; see counterexample.json", file=sys.stderr)
        return CHECK_FAILED
    (out / "certificate.json").write_text(cert.to_json_str())
    (out / "verification.json").write_text(report.to_json_str())
    print(report.to_json_str())
    return 0 if report.passed else CHECK_FAILED


def cmd_adversary(args) -> int:
    eps = parse_rat(args.epsilon)
    transcript = deterministic_lb_run(
        eps, args.rounds, tail_m=args.tail, policy=args.policy
    )
    out = _outdir(args)
    doc = jsonable(
        {
            "epsilon": eps,
            "policy": args.policy,
            "k": transcript.k,
            "rounds": [
                {
                    "index": r.index,
                    "t_start": r.t_start,
                    "t_declare": r.t_declare,
                    "t_end": r.t_end,
                    "gamma": r.gamma,
                    "declared": r.declared,
                    "alg_count": r.alg_count,
                    "smart_count": r.smart_count,
                }
                for r in transcript.rounds
            ],
            "tail_m": transcript.tail_m,
            "probe_len": transcript.probe_len,
            "final_ratio": transcript.final_ratio,
            "final_ratio_decimal": None
            if transcript.final_ratio is None
            else float(transcript.final_ratio),
        }
    )
    (out / "transcript.json").write_text(json.dumps(doc, indent=2))
    if transcript.instance is not None:
        (out / "instance.json").write_text(
            serialize_instance(
                transcript.instance,
                meta={"kind": "adversary", "rounds": args.rounds, "tail": args.tail},
            )
        )
    print(json.dumps(doc, indent=2))
    return 0


def cmd_sample(args) -> int:
    seed = args.seed
    if args.kind == "geometric":
        inst, tau = randomized_lb_sample(args.k, seed)
        meta = sampler_meta("geometric", {"k": args.k, "tau": tau}, seed)
    elif args.kind == "phase":
        eps = parse_rat(args.epsilon)
        inst = phase_lb_sample(eps, args.k, seed)
        meta = sampler_meta("phase", {"k": args.k, "epsilon": rat_str(eps)}, seed)
    else:  # exp; argparse rejects any other kind
        eps = parse_rat(args.epsilon)
        inst = exp_simultaneous_sample(args.n, seed, eps)
        meta = sampler_meta("exp", {"n": args.n, "epsilon": rat_str(eps)}, seed)
    text = serialize_instance(inst, meta=meta)
    Path(args.out_file).write_text(text)
    print(f"wrote {args.out_file}")
    return 0


def _sweep_one(task) -> dict:
    kind, params, policy, seed = task
    summary = lb_statistics(kind, params, 1, policy=policy, seed=seed)
    return {
        "value": summary.values[0] if summary.values else None,
        "target": summary.target,
    }


def cmd_sweep(args) -> int:
    if args.samples < 0:
        raise InstanceError("samples must be >= 0")
    if args.jobs < 1:
        raise InstanceError("jobs must be >= 1")
    if args.kind == "geometric":
        # the geometric sampler fixes eps = 1/(2k), so --epsilon adds no rows
        if args.k < 1:
            raise InstanceError("k must be >= 1")
        eps_list = [Fraction(1, 2 * args.k)]
    else:
        eps_list = [parse_rat(e) for e in args.epsilon]
    eps_col = []
    tasks = []
    for eps in eps_list:
        if args.kind == "geometric":
            params = {"k": args.k}
        elif args.kind == "phase":
            params = {"epsilon": eps, "k": args.k}
        else:
            params = {"n": args.n, "epsilon": eps}
        for i in range(args.samples):
            tasks.append((args.kind, params, args.policy, args.seed + i))
            eps_col.append(rat_str(eps))
    # both maps return results in input order
    if args.jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = list(map(_sweep_one, tasks))
    lines = ["epsilon,sample,value,target"]
    for i, (eps_s, payload) in enumerate(zip(eps_col, results)):
        lines.append(f"{eps_s},{i},{payload['value']},{payload['target']}")
    out = _outdir(args)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(lines) - 1} rows)")
    return 0


def cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    eps = parse_rat(args.epsilon) if args.epsilon is not None else inst.epsilon
    report = reduction_check(inst, eps)
    witness = jsonable(report.witness)
    doc = {"ok": report.ok, "checks": report.checks, "witness": witness}
    out = _outdir(args)
    (out / "reduction.json").write_text(json.dumps(doc, indent=2))
    print(json.dumps(doc, indent=2))
    return 0 if report.ok else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slflab",
        description="exact-arithmetic lab for adaptive-clairvoyance scheduling",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("simulate", help="run one policy on an instance")
    p.add_argument("instance")
    p.add_argument("--policy", choices=["slf", "srpt", "setf", "rr"], default="slf")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--speed", default="1")
    p.add_argument("--forbidden", default=None, help="JSON file with intervals")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="slf vs srpt with the local count check")
    p.add_argument("instance")
    p.add_argument("--epsilon", default=None)
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("certify", help="build and verify a certificate")
    p.add_argument("instance")
    p.add_argument("--time", required=True)
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("adversary", help="deterministic lower-bound rounds")
    p.add_argument("mode", choices=["det"])
    p.add_argument("--epsilon", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--tail", type=int, default=0)
    p.add_argument("--policy", choices=["slf", "setf", "rr"], default="slf")
    common(p)
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("sample", help="draw one instance from a sampler")
    p.add_argument("--kind", choices=["geometric", "phase", "exp"], required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", dest="out_file", required=True, help="output file")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("sweep", help="Monte-Carlo campaign over a sampler")
    p.add_argument("--kind", choices=["geometric", "phase", "exp"], required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--epsilon", nargs="+", default=["1/2"])
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", choices=["slf", "srpt", "setf", "rr"], default="slf")
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("reduce", help="speed-augmentation chain report")
    p.add_argument("instance")
    p.add_argument("--epsilon", default=None)
    common(p)
    p.set_defaults(fn=cmd_reduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
