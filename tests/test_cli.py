import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from slflab import cli
from slflab.adversary import phase_lb_sample, randomized_lb_sample
from slflab.assignment import AssignmentError
from slflab.certifier import CounterexampleError
from slflab.cli import main
from slflab.core import parse_instance, serialize_instance
from slflab.reduction import ChainReport
from slflab.sim import SimulationError

from .helpers import staggered_instance, toy_instance


def write_toy(tmp_path: Path) -> Path:
    path = tmp_path / "toy.json"
    path.write_text(serialize_instance(toy_instance()))
    return path


def test_simulate_toy(tmp_path, capsys):
    inst = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(inst), "--policy", "slf", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["flow"] == "66"
    # one row per (segment, job), jobs in id order; pinned byte for byte
    assert (out / "schedule.csv").read_text() == (
        "start,end,job_id,rate\n"
        "0,3,1,1/6\n"
        "0,3,2,1/6\n"
        "0,3,3,1/6\n"
        "0,3,4,1/6\n"
        "0,3,5,1/6\n"
        "0,3,6,1/6\n"
        "3,7/2,6,1\n"
        "7/2,6,1,1/5\n"
        "7/2,6,2,1/5\n"
        "7/2,6,3,1/5\n"
        "7/2,6,4,1/5\n"
        "7/2,6,5,1/5\n"
        "6,7,5,1\n"
        "7,9,1,1/4\n"
        "7,9,2,1/4\n"
        "7,9,3,1/4\n"
        "7,9,4,1/4\n"
        "9,21/2,3,1\n"
        "21/2,12,4,1\n"
        "12,13,1,1/2\n"
        "12,13,2,1/2\n"
        "13,15,2,1\n"
        "15,31/2,1,1\n"
        "31/2,18,1,1\n"
    )
    events = (out / "events.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in events}
    assert {"arrival", "known", "completion"} <= kinds


def test_simulate_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"epsilon":"1/2","jobs":[]}')
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["flow"] == "0"


def test_missing_file_exit_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"epsilon":"2","jobs":[]}')
    assert main(["simulate", str(bad)]) == 2


def test_malformed_instance_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    job = {"id": 1, "release": "0", "size": "1"}
    docs = [
        {"epsilon": "1/2", "jobs": 5},
        {"epsilon": "1/2", "jobs": {"id": 1}},
        {"epsilon": "1/2", "jobs": [{**job, "id": True}]},
        {"epsilon": "1/2", "jobs": [{**job, "epoch": True}]},
    ]
    for doc in docs:
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2, doc


def test_internal_key_error_is_not_an_input_error(tmp_path, monkeypatch):
    # no input path raises KeyError, so one from inside the run is a bug and
    # must not be reported as bad input (exit 2)
    def lookup_fails(*args, **kwargs):
        raise KeyError(7)

    monkeypatch.setattr(cli, "simulate", lookup_fails)
    with pytest.raises(KeyError):
        main(["simulate", str(write_toy(tmp_path)), "--out", str(tmp_path / "out")])


def test_compare_toy(tmp_path):
    inst = write_toy(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", str(inst), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["local_ok"] is True
    assert doc["ratio"] == "33/25"
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0] == "t,count_alg,count_opt"


def test_compare_rejects_zero_epsilon_first(tmp_path, capsys):
    # the epsilon check comes before any simulation, so an undeclared job
    # does not hide it behind the engine's horizon error
    path = tmp_path / "eps0.json"
    for size in ("1", None):
        job = {"id": 1, "release": "0", "size": size}
        path.write_text(json.dumps({"epsilon": "0", "jobs": [job]}))
        assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "compare needs epsilon > 0" in capsys.readouterr().err, size


def test_certify_toy(tmp_path):
    inst = write_toy(tmp_path)
    out = tmp_path / "cert"
    assert main(["certify", str(inst), "--time", "9", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["phi"] == "2"
    rep = json.loads((out / "verification.json").read_text())
    assert rep["passed"] is True
    assert main(["certify", str(inst), "--time", "-3", "--out", str(out)]) == 2


def test_certify_failures_are_replayable(tmp_path, monkeypatch):
    inst = write_toy(tmp_path)
    out = tmp_path / "cx"

    def lemma_fails(inst, t):
        raise CounterexampleError(
            "Inv1-magical", s=F(1, 2), touched={6, 2}, at=(F(3), 4)
        )

    monkeypatch.setattr(cli, "create_valid_assignment", lemma_fails)
    assert main(["certify", str(inst), "--time", "9/2", "--out", str(out)]) == 1
    path = out / "counterexample.json"
    meta = json.loads(path.read_text())["meta"]
    assert meta == {
        "kind": "counterexample",
        "check": "Inv1-magical",
        "time": "9/2",
        "context": {"s": "1/2", "touched": [2, 6], "at": ["3", 4]},
    }
    # the file is an instance file: one call replays the failing target
    assert parse_instance(path.read_text()) == toy_instance()
    monkeypatch.undo()
    replay = ["certify", str(path), "--time", meta["time"], "--out", str(tmp_path / "re")]
    assert main(replay) == 0

    # an engine invariant breaking after input validation is a failure, not
    # bad input: exit 1 with the same file
    for exc in (AssignmentError("marginal sums differ"), SimulationError("stalled")):
        def verify_raises(cert, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "verify_certificate", verify_raises)
        path.unlink()
        assert main(["certify", str(inst), "--time", "9", "--out", str(out)]) == 1
        meta = json.loads(path.read_text())["meta"]
        assert meta["check"] == type(exc).__name__
        assert meta["context"] == {"message": str(exc)}
        assert meta["time"] == "9"
    # input errors keep exit 2
    zero = tmp_path / "eps0.json"
    zero.write_text('{"epsilon":"0","jobs":[{"id":1,"release":"0","size":"1"}]}')
    assert main(["certify", str(zero), "--time", "0", "--out", str(out)]) == 2


def test_adversary_cli(tmp_path):
    out = tmp_path / "adv"
    rc = main(
        [
            "adversary",
            "det",
            "--epsilon",
            "1/2",
            "--rounds",
            "2",
            "--tail",
            "20",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "transcript.json").read_text())
    assert doc["rounds"][-1]["alg_count"] == 4
    assert float(F(doc["final_ratio"])) >= 1.99


def test_adversary_rejects_negative_rounds_and_tail(tmp_path):
    base = ["adversary", "det", "--epsilon", "1/2", "--out", str(tmp_path / "adv")]
    assert main(base + ["--rounds", "2", "--tail", "-3"]) == 2
    assert main(base + ["--rounds", "-1"]) == 2
    assert not (tmp_path / "adv" / "transcript.json").exists()


def test_malformed_forbidden_window_rejected(tmp_path):
    inst = write_toy(tmp_path)
    out = tmp_path / "out"
    for pairs in ([["3", "1"]], [["2", "2"]], [["-1", "2"]], [["0", "1"], ["5", "4"]]):
        path = tmp_path / "forbidden.json"
        path.write_text(json.dumps({"intervals": pairs}))
        argv = ["simulate", str(inst), "--forbidden", str(path), "--out", str(out)]
        assert main(argv) == 2, pairs
    # a file that is not an intervals list of pairs is bad input, not a crash
    for text in ('{"intervals": 3}', "[1, 2]", '{"intervals": [3]}', '{"intervals": [[1]]}'):
        path.write_text(text)
        argv = ["simulate", str(inst), "--forbidden", str(path), "--out", str(out)]
        assert main(argv) == 2, text
    # endpoints follow the instance rules: decimals are exact, bools are not numbers
    for windows in ([["0", "1"], ["1", "5/2"]], [[0, 1], [1.0, 2.5]], [["0", "1.0"], [1, "2.5"]]):
        path.write_text(json.dumps({"intervals": windows}))
        argv = ["simulate", str(inst), "--forbidden", str(path), "--out", str(out)]
        assert main(argv) == 0, windows
        # the windows delay every completion by the 5/2 forced idle
        assert json.loads((out / "metrics.json").read_text())["flow"] == "81"
    path.write_text('{"intervals": [[false, true]]}')
    assert main(["simulate", str(inst), "--forbidden", str(path), "--out", str(out)]) == 2


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["sample", "--kind", "exp", "--n", "5", "--epsilon", "1/2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert doc["meta"]["kind"] == "exp" and doc["meta"]["quant_bits"] == 64


def test_sample_and_sweep_geometric_and_phase(tmp_path):
    geo, phase = tmp_path / "g.json", tmp_path / "p.json"
    assert main(["sample", "--kind", "geometric", "--k", "2", "--seed", "1", "--out", str(geo)]) == 0
    argv = ["sample", "--kind", "phase", "--k", "2", "--epsilon", "1/2", "--seed", "1"]
    assert main(argv + ["--out", str(phase)]) == 0
    inst, tau = randomized_lb_sample(2, 1)
    doc = json.loads(geo.read_text())
    assert doc["meta"] == {"kind": "geometric", "seed": 1, "k": 2, "tau": tau}
    assert parse_instance(geo.read_text()) == inst
    doc = json.loads(phase.read_text())
    assert doc["meta"] == {"kind": "phase", "seed": 1, "k": 2, "epsilon": "1/2"}
    assert parse_instance(phase.read_text()) == phase_lb_sample(F(1, 2), 2, 1)
    # lb_statistics("phase", ...) through the CLI: one row per sample, target 1.5
    out = tmp_path / "phase"
    argv = ["sweep", "--kind", "phase", "--k", "2", "--epsilon", "1/2", "1/3"]
    assert main(argv + ["--samples", "2", "--seed", "1", "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["1/2", "0"], ["1/2", "1"], ["1/3", "2"], ["1/3", "3"]]
    assert all(r[3] == "1.5" and float(r[2]) > 0 for r in rows)


def test_unknown_sampler_kind_is_a_usage_error(tmp_path):
    # argparse's choices reject the kind before any command code runs
    for argv in (
        ["sample", "--kind", "uniform", "--seed", "1", "--out", str(tmp_path / "x.json")],
        ["sweep", "--kind", "uniform", "--samples", "1", "--seed", "1", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_sweep(tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--kind",
            "exp",
            "--n",
            "12",
            "--epsilon",
            "1/2",
            "--samples",
            "4",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "epsilon,sample,value,target"
    assert len(rows) == 5
    # reproducible byte-identical output
    before = (out / "sweep.csv").read_bytes()
    assert (
        main(
            [
                "sweep",
                "--kind",
                "exp",
                "--n",
                "12",
                "--epsilon",
                "1/2",
                "--samples",
                "4",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (out / "sweep.csv").read_bytes() == before
    empty = tmp_path / "sweep0"
    assert (
        main(
            [
                "sweep",
                "--kind",
                "exp",
                "--samples",
                "0",
                "--seed",
                "1",
                "--out",
                str(empty),
            ]
        )
        == 0
    )
    assert (empty / "sweep.csv").read_text().splitlines() == [
        "epsilon,sample,value,target"
    ]
    # the geometric sampler fixes eps = 1/(2k): --epsilon adds no rows
    geo = tmp_path / "geo"
    argv = ["sweep", "--kind", "geometric", "--k", "2", "--epsilon", "1/2", "3/4"]
    assert main(argv + ["--samples", "2", "--seed", "1", "--out", str(geo)]) == 0
    rows = (geo / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert [r.split(",")[:2] for r in rows[1:]] == [["1/4", "0"], ["1/4", "1"]]
    # fewer than one worker is bad input, not a silent serial run
    zero = tmp_path / "jobs0"
    argv = ["sweep", "--kind", "exp", "--samples", "1", "--seed", "1", "--out", str(zero)]
    assert main(argv + ["--jobs", "0"]) == 2
    assert main(argv + ["--jobs", "-2"]) == 2
    assert not zero.exists()
    # an empty --epsilon list is a usage error, not a crash in the sampler
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "exp", "--epsilon", "--samples", "1", "--seed", "1"])
    assert exc.value.code == 2


def test_sweep_process_pool_matches_serial(tmp_path):
    cases = [
        ["--kind", "exp", "--n", "6", "--epsilon", "1/2", "1/3", "--samples", "3"],
        ["--kind", "geometric", "--k", "2", "--samples", "3"],
    ]
    for i, case in enumerate(cases):
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{i}-{jobs}"
            argv = ["sweep", *case, "--seed", "5", "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            written.append((out / "sweep.csv").read_text())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) > 3


def test_reduce_cli(tmp_path):
    path = tmp_path / "stag.json"
    path.write_text(serialize_instance(staggered_instance()))
    out = tmp_path / "red"
    assert main(["reduce", str(path), "--epsilon", "1/2", "--out", str(out)]) == 0
    doc = json.loads((out / "reduction.json").read_text())
    assert doc["ok"] is True
    assert doc["witness"] == {}


def test_reduce_witness_is_structured(tmp_path, monkeypatch):
    path = tmp_path / "stag.json"
    path.write_text(serialize_instance(staggered_instance()))
    witness = {"setfi": {"elapsed": (F(3, 2), 4)}, "chain": F(5, 2)}
    report = ChainReport(False, {"chain": False}, witness)
    monkeypatch.setattr(cli, "reduction_check", lambda inst, eps: report)
    out = tmp_path / "red"
    assert main(["reduce", str(path), "--out", str(out)]) == 1
    doc = json.loads((out / "reduction.json").read_text())
    assert doc["witness"] == {"setfi": {"elapsed": ["3/2", 4]}, "chain": "5/2"}
