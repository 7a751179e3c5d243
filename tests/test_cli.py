"""CLI surface: exit codes, JSON output, determinism."""

import inspect
import json

import pytest

from welfarist.campaigns import CampaignSpec, run_campaign
from welfarist.cli import build_parser, main
from welfarist.conditions import Bounds, find_witness_adaptive, threshold_bisect
from welfarist.fairness import is_pareto_optimal
from welfarist.values import PrecisionPolicy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def chain_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "construct", "chain", "4")
    assert code == 0
    path.write_text(out)
    return str(path)


def test_construct_chain_document(capsys):
    code, out, _ = run(capsys, "construct", "chain", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["agents"] == 4
    assert doc["utilities"][0] == ["4", "0", "0", "0"]


def test_solve_log_unique_diagonal(chain_file, capsys):
    code, out, _ = run(capsys, "solve", chain_file, "--welfare", "log", "--all")
    assert code == 0
    doc = json.loads(out)
    assert doc["allocations"] == [[[0], [1], [2], [3]]]
    assert doc["welfare"] == {"kind": "log", "argument": "4"}


def test_solve_harmonic_includes_shift(chain_file, capsys):
    code, out, _ = run(capsys, "solve", chain_file, "--welfare", "harmonic:0", "--all")
    assert code == 0
    doc = json.loads(out)
    assert [[0], [], [1], [2, 3]] in doc["allocations"]


def test_solve_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = run(capsys, "solve", str(bad), "--welfare", "log")
    assert code == 2 and "error" in err


def test_solve_refuses_an_instance_over_the_enumeration_cap(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"agents": 3, "utilities": [["1"] * 17] * 3}))
    code, out, err = run(capsys, "solve", str(path), "--welfare", "log")
    assert code == 2 and "exceeds cap" in err and out == ""


def test_check_exit_codes(chain_file, tmp_path, capsys):
    good = tmp_path / "b.json"
    good.write_text('{"bundles":[[0],[],[1],[2,3]]}')
    code, out, _ = run(capsys, "check", "ef1", chain_file, str(good))
    assert code == 0 and json.loads(out)["holds"]

    code, out, _ = run(capsys, "check", "po", chain_file, str(good))
    assert code == 0 and json.loads(out)["verdict"] == "PO"

    concentrated = tmp_path / "c.json"
    concentrated.write_text('{"bundles":[[0,1,2,3],[],[],[]]}')
    code, out, _ = run(capsys, "check", "ef1", chain_file, str(concentrated))
    assert code == 1 and not json.loads(out)["holds"]

    broken = tmp_path / "broken.json"
    broken.write_text('{"bundles":[[0],[1],[2],[2,3]]}')
    code, _out, _err = run(capsys, "check", "ef1", chain_file, str(broken))
    assert code == 2

    missing = tmp_path / "missing.json"
    missing.write_text('{"bundles":[[0],[1],[2],[]]}')
    code, _out, _err = run(capsys, "check", "ef1", chain_file, str(missing))
    assert code == 2


def test_solve_exits_3_on_a_tie_it_cannot_decide(tmp_path, capsys):
    # 2^(1/3) + 16^(1/3) = 54^(1/3) exactly, which no interval separates
    path = tmp_path / "cube-root-tie.json"
    path.write_text('{"agents":2,"utilities":[["2","52"],["0","16"]]}')
    code, out, err = run(capsys, "solve", str(path), "--welfare", "pmean:1/3", "--all")
    doc = json.loads(out)
    assert code == 3 and doc["count"] == 2 and doc["exactness"] == "Inconclusive"
    assert "precision ceiling" in err


def test_check_po_and_ef_exit_codes(tmp_path, capsys):
    swapped = tmp_path / "swapped.json"
    swapped.write_text('{"agents":2,"utilities":[["1","0"],["0","1"]]}')
    each_gets_the_other = tmp_path / "b.json"
    each_gets_the_other.write_text('{"bundles":[[1],[0]]}')
    code, out, _ = run(capsys, "check", "po", str(swapped), str(each_gets_the_other))
    assert code == 1 and '"dominated_by":[[0,1],[]]' in out
    assert json.loads(out)["verdict"] == "Dominated"
    code, out, _ = run(capsys, "check", "ef", str(swapped), str(each_gets_the_other))
    assert code == 1 and json.loads(out) == {"property": "ef", "holds": False}

    ones = tmp_path / "ones.json"
    ones.write_text('{"agents":2,"utilities":[["1","1"],["1","1"]]}')
    all_to_one = tmp_path / "a.json"
    all_to_one.write_text('{"bundles":[[0,1],[]]}')
    code, out, _ = run(capsys, "check", "po", str(ones), str(all_to_one), "--budget", "1")
    assert code == 3 and json.loads(out)["verdict"] == "BudgetExceeded"
    code, out, _ = run(capsys, "check", "po", str(ones), str(all_to_one))
    assert code == 0 and json.loads(out)["verdict"] == "PO"


def test_classify_output(chain_file, capsys):
    code, out, _ = run(capsys, "classify", chain_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["integer_valued"] and not doc["two_value"]


def test_condition_exit_codes(capsys):
    code, out, _ = run(
        capsys, "condition", "C3b", "--welfare", "modlog:2", "--k-max", "3", "--a-max", "5"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["k"] == 0 and doc["witness"]["a"] >= 2

    code, out, _ = run(
        capsys, "condition", "C4", "--welfare", "pmean:1/2", "--k-max", "100"
    )
    assert code == 0 and json.loads(out)["verdict"] == "NoViolationFound"

    code, out, _ = run(
        capsys,
        "condition",
        "C6a",
        "--welfare",
        "harmonic:-3/4",
        "--adaptive",
        "--k-max",
        "4",
        "--a-max",
        "8",
    )
    assert code == 1 and json.loads(out)["witness"] == {"k": 1, "a": 1, "b": 7}


def test_condition_renders_a_witness_with_large_rationals(capsys):
    """The middle increment at a = 5574 sums 5,574 terms of 1/(t + c): a
    rational of about 80,000 bits, past the int-to-str digit limit."""
    code, out, _ = run(
        capsys, "condition", "C3b", "--welfare", "harmonic:907/2048", "--k-max", "3", "--a-max", "51200"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"] == {"k": 0, "a": 5574}
    assert doc["lhs"] == {"kind": "rational", "value": "2048/2955"}
    assert doc["rhs"] == {"kind": "exact", "decimal": "0.693062612682373356573091589855"}


def test_condition_real_grid_witness_is_json(capsys):
    code, out, _ = run(capsys, "condition", "C1", "--welfare", "harmonic:0")
    assert code == 1
    assert json.loads(out)["witness"] == {"k": 0, "a": "1/2", "b": "1/4"}


def test_condition_usage_error(capsys):
    code, _out, err = run(capsys, "condition", "C9", "--welfare", "log")
    assert code == 2 and "error" in err


def test_construct_flat_tie(capsys):
    code, out, _ = run(capsys, "construct", "flat-tie", "2", "1", "2", "--tie-allocations")
    assert code == 0
    lines = out.strip().splitlines()
    inst = json.loads(lines[0])
    assert inst["agents"] == 2 and len(inst["utilities"][0]) == 12
    ties = json.loads(lines[1])
    assert len(ties["balanced"][0]) == 6 and len(ties["lopsided"][0]) == 7


def test_construct_bad_params(capsys):
    code, _out, err = run(capsys, "construct", "chain")
    assert code == 2
    code, _out, err = run(capsys, "construct", "unknown-thing", "1")
    assert code == 2


def test_condition_rejects_a_negative_b_max_or_x_max(capsys):
    # a negative box is empty, and an empty box reads NoViolationFound
    for flag in ("--b-max", "--x-max"):
        code, _out, err = run(capsys, "condition", "C6b", "--welfare", "harmonic:-3/4", flag, "-3")
        assert code == 2 and "error" in err
    with pytest.raises(ValueError):
        Bounds(b_max=-1)
    with pytest.raises(ValueError):
        Bounds(x_max=-1)
    # a bound of 0, an empty box, stays valid
    assert Bounds(b_max=0, x_max=0).b_limit == 0


def test_campaign_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "campaign", "--theorem", "modlog-integer", "--trials", "-5")
    assert code == 2 and out == "" and "error" in err
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec("modlog-integer", trials=-1))
    assert run_campaign(CampaignSpec("modlog-integer", trials=0)).passed


def test_check_po_rejects_a_budget_below_one(chain_file, tmp_path, capsys):
    # no assignment would be scanned, so BudgetExceeded (exit 3) would say nothing
    alloc = tmp_path / "b.json"
    alloc.write_text('{"bundles":[[0],[],[1],[2,3]]}')
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "check", "po", chain_file, str(alloc), "--budget", budget)
        assert code == 2 and out == "" and "error" in err


def test_parser_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parser = build_parser()
    solve = parser.parse_args(["solve", "instance.json", "--welfare", "log"])
    assert solve.precision_bits == PrecisionPolicy().start_bits
    check = parser.parse_args(["check", "po", "instance.json", "allocation.json"])
    assert check.budget == default(is_pareto_optimal, "budget")
    cond = parser.parse_args(["condition", "C1", "--welfare", "log"])
    assert (cond.k_max, cond.a_max) == (Bounds().k_max, Bounds().a_max)
    assert cond.a_cap == default(find_witness_adaptive, "a_cap") == default(threshold_bisect, "a_cap")
    campaign = parser.parse_args(["campaign", "--theorem", "mnw-integer"])
    spec = CampaignSpec("mnw-integer")
    for name in ("trials", "seed", "n_min", "n_max", "m_min", "m_max", "max_value"):
        assert getattr(campaign, name) == getattr(spec, name), name


def test_one_parser_serves_every_call(chain_file, tmp_path, capsys):
    alloc = tmp_path / "diagonal.json"
    alloc.write_text('{"bundles":[[0],[1],[2],[3]]}')
    commands = [
        ("solve", chain_file, "--welfare", "log", "--all"),
        ("check", "ef1", chain_file, str(alloc)),
        ("check", "po", chain_file, str(alloc)),
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert json.loads(first[2][1]) == {"property": "po", "verdict": "PO"}
    assert [run(capsys, *argv) for argv in commands] == first
    assert build_parser() is build_parser()


def test_campaign_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "campaign",
        "--theorem",
        "harmonic-integer-fails",
        "--trials",
        "3",
        "--seed",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["counterexample"]

    # the counterexample re-feeds through solve + check and reproduces
    inst_path = tmp_path / "counter.json"
    inst_path.write_text(doc["counterexample"]["instance"])
    code, solve_out, _ = run(
        capsys, "solve", str(inst_path), "--welfare", doc["welfare"], "--all"
    )
    assert code == 0
    alloc = doc["counterexample"]["allocation"]
    assert alloc in json.loads(solve_out)["allocations"]
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": alloc}))
    code, _out, _err = run(capsys, "check", "ef1", str(inst_path), str(alloc_path))
    assert code == 1


def test_byte_identical_reruns(capsys):
    args = ["campaign", "--theorem", "mnw-integer", "--trials", "5", "--seed", "9"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas")
    assert code == 0 and json.loads(out)["passed"]


def test_solve_precision_flag(chain_file, capsys):
    code, out, _ = run(
        capsys, "solve", chain_file, "--welfare", "pmean:1/2", "--precision-bits", "64"
    )
    assert code == 0
    assert json.loads(out)["exactness"] in ("Exact", "IntervalCertified")


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_solve_rejects_precision_below_one_bit(chain_file, capsys, bits):
    code, out, err = run(capsys, "solve", chain_file, "--welfare", "log", "--precision-bits", bits)
    assert code == 2 and "error" in err and out == ""


def test_solve_decides_with_precision_above_the_ceiling(tmp_path, capsys, monkeypatch):
    # two welfare values about 3e-16 apart: their float bounds overlap, so the
    # comparator decides, at the ceiling instead of not at all
    monkeypatch.setenv("WELFARIST_PRECISION_CEILING", "512")
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"agents": 2, "utilities": [["1/2"], ["5000000000000003/10000000000000000"]]}))
    code, out, _ = run(capsys, "solve", str(path), "--welfare", "harmonic:0", "--precision-bits", "8192")
    assert code == 0
    doc = json.loads(out)
    assert doc["allocations"] == [[[], [0]]] and doc["exactness"] == "IntervalCertified"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize(
    "grid, literal",
    [("1/0", "'1/0'"), ("1e3,0.5", "'1e3'"), ("-1,1", "-1")],
)
def test_condition_grid_points_are_strict_rationals(capsys, grid, literal):
    # a zero denominator, a float literal and a negative point are usage errors
    code, out, err = run(capsys, "condition", "C2", "--welfare", "log", f"--grid={grid}")
    assert code == 2 and out == "" and literal in err
