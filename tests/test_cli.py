"""End-to-end command-line behaviour, run in-process via main(argv)."""

import io
import json
import math
import random
from pathlib import Path

import pytest

import mdx
from conftest import random_profile
from mdx.cli import EXIT_CODES, main
from mdx.conjecture import Verdict, count_canonical
from mdx.instances import INSTANCE_BUILDERS, counterexample_relax1, counterexample_relax2, three_cycle
from mdx.metriclp import max_distortion, parse_metric
from mdx.profile import parse_profile, serialize_profile
from mdx.rules import optimal_lp_winner

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"

PENTA_GRAPH = """\
names: A,B,C,D,E
0   0.3 0.4 0.6 0.7
0.7 0   0.3 0.4 0.6
0.6 0.7 0   0.3 0.4
0.4 0.6 0.7 0   0.3
0.3 0.4 0.6 0.7 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def profile_file(tmp_path):
    def write(text, name="profile.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_exit_code_table():
    assert EXIT_CODES == {
        "ok": 0,
        "counterexample": 1,
        "parse": 2,
        "rule": 3,
        "inconsistent": 4,
        "budget": 5,
    }


class TestReportShape:
    def test_fields_and_input_digest(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "winner", path, "--rule", "copeland")
        assert code == 0
        assert set(report) == {"command", "inputs", "result", "version"}
        assert report["command"] == "winner"
        assert report["version"] == mdx.__version__
        info = report["inputs"]["profile"]
        assert info["path"] == path
        assert info["bytes"] == len(THREE_CYCLE)
        assert len(info["sha256"]) == 16
        int(info["sha256"], 16)  # hex digest prefix

    def test_report_is_one_compact_line(self, capsys, profile_file):
        code, out, _ = run(capsys, "tournament", profile_file(THREE_CYCLE))
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out.rstrip("\n") == json.dumps(json.loads(out), separators=(",", ":"))

    def test_rationals_are_structured(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        _, report = run_json(capsys, "tournament", path)
        entry = report["result"]["weights"]["A"]["B"]
        assert entry == {"num": 2, "den": 3, "decimal": pytest.approx(2 / 3)}


class TestWinner:
    def test_matching_rule_on_three_cycle(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "winner", path, "--rule", "matching-uncovered")
        assert code == 0
        assert report["result"]["winner"] == "A"
        assert report["result"]["support"]["set"] == ["A", "B", "C"]

    def test_all_rules_agree_on_unanimity(self, capsys, profile_file):
        path = profile_file("3: B > A > C\n")
        for rule in ("copeland", "uncovered", "ranked-pairs", "schulze",
                     "weighted-uncovered", "matching-uncovered", "optimal-lp"):
            code, report = run_json(capsys, "winner", path, "--rule", rule)
            assert code == 0
            assert report["result"]["winner"] == "B", rule

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(THREE_CYCLE))
        code, report = run_json(capsys, "winner", "-", "--rule", "copeland")
        assert code == 0 and report["result"]["winner"] == "A"

    def test_hundred_voter_counterexample(self, capsys, profile_file):
        from mdx.instances import counterexample_relax2
        from mdx.profile import serialize_profile

        path = profile_file(serialize_profile(counterexample_relax2().profile))
        code, report = run_json(capsys, "winner", path, "--rule", "weighted-uncovered")
        assert code == 0
        assert report["result"]["winner"] == "A"
        # Support follows the graph's candidate order (first-ballot order).
        assert sorted(report["result"]["support"]["set"]) == ["A", "B", "C", "D"]


class TestDistortion:
    def test_lp_mode_three_cycle(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "distortion", path, "A")
        assert code == 0
        result = report["result"]
        assert result["mode"] == "lp" and result["status"] == "optimal"
        assert result["max_distortion"] == pytest.approx(3.0)
        assert result["values"]["B"] == pytest.approx(2.0)
        assert result["values"]["C"] == pytest.approx(3.0)

    def test_lp_witnesses_parse_back(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        _, report = run_json(capsys, "distortion", path, "A", "--witness")
        for text in report["result"]["witnesses"].values():
            metric = parse_metric(text)
            assert metric.n_candidates == 3 and metric.n_voters == 3

    def test_unbounded_candidate(self, capsys, profile_file):
        path = profile_file("2: B > A\n")
        code, report = run_json(capsys, "distortion", path, "A")
        assert code == 0
        assert report["result"]["status"] == "unbounded"
        assert report["result"]["max_distortion"] == "unbounded"

    def test_fixed_metric_mode(self, capsys, tmp_path, profile_file):
        metric_path = str(tmp_path / "fair.metric")
        run(capsys, "instance", "fairness-table", "--metric-out", metric_path)
        fair = profile_file("C > B > A\nB > A > C\n", "fair.profile")
        code, report = run_json(capsys, "distortion", fair, "A", "--metric", metric_path)
        assert code == 0
        assert report["result"] == {"mode": "fixed-metric", "candidate": "A", "value": 4.0}

    def test_fixed_metric_fairness_k(self, capsys, tmp_path, profile_file):
        metric_path = str(tmp_path / "fair.metric")
        run(capsys, "instance", "fairness-table", "--metric-out", metric_path)
        fair = profile_file("C > B > A\nB > A > C\n", "fair.profile")
        code, report = run_json(
            capsys, "distortion", fair, "A", "--metric", metric_path, "--k", "1"
        )
        assert code == 0
        assert report["result"]["value"] == 5.0 and report["result"]["k"] == 1

    def test_inconsistent_metric_exit_code(self, capsys, tmp_path, profile_file):
        metric_path = str(tmp_path / "fair.metric")
        run(capsys, "instance", "fairness-table", "--metric-out", metric_path)
        bad = profile_file("A > B > C\nA > B > C\n", "bad.profile")
        code, out, err = run(capsys, "distortion", bad, "A", "--metric", metric_path)
        assert code == EXIT_CODES["inconsistent"] == 4
        assert out == "" and "error:" in err

    def test_max_distortion_matches_library_readings(self, capsys, profile_file):
        rng = random.Random(11)
        for _ in range(6):
            text = serialize_profile(random_profile(rng, min_n=3, max_n=4, max_m=5))
            path, p = profile_file(text), parse_profile(text)
            max_values = optimal_lp_winner(p).support["max_values"]
            for name in p.candidates:
                value = max_distortion(p, name)
                _, report = run_json(capsys, "distortion", path, name)
                # optimal-lp warm-starts each opponent's LPs; max_distortion
                # solves each cold, so the last digits may differ.
                assert max_values[name] == pytest.approx(value, rel=1e-12)
                assert report["result"]["max_distortion"] == ("unbounded" if math.isinf(value) else value)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "1"], "--metric"),
            (["--tol", "0.5"], "--metric"),
            (["--metric", "{metric}", "--witness"], "--witness"),
        ],
        ids=["k", "tol", "witness"],
    )
    def test_flags_of_the_other_mode_are_rejected(self, capsys, tmp_path, profile_file, flags, message):
        metric_path = str(tmp_path / "fair.metric")
        run(capsys, "instance", "fairness-table", "--metric-out", metric_path)
        path = profile_file("C > B > A\nB > A > C\n")
        argv = [flag.format(metric=metric_path) for flag in flags]
        code, out, err = run(capsys, "distortion", path, "A", *argv)
        assert code == EXIT_CODES["parse"]
        assert out == "" and message in err

    def test_tol_with_metric(self, capsys, tmp_path, profile_file):
        metric_path = str(tmp_path / "fair.metric")
        run(capsys, "instance", "fairness-table", "--metric-out", metric_path)
        fair = profile_file("C > B > A\nB > A > C\n", "fair.profile")
        code, report = run_json(capsys, "distortion", fair, "A", "--metric", metric_path, "--tol", "0.5")
        assert code == 0 and report["result"]["value"] == 4.0

    def test_unknown_candidate(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, _, err = run(capsys, "distortion", path, "Z")
        assert code == 2 and "Z" in err

    @pytest.mark.parametrize("d_ab, code", [(3, 0), (100, 2)])
    def test_parsed_metric_with_repeated_voters(self, capsys, profile_file, d_ab, code):
        # 2 candidates + 48 identical voters = 50 points, 3 distinct rows;
        # d(A,v) + d(v,B) = 3 for every voter, so d(A,B) = 100 breaks the
        # triangle inequality and d(A,B) = 3 does not.
        m = 48
        labels = ["A", "B"] + [f"v{i}" for i in range(1, m + 1)]
        dist = {("A", "B"): d_ab}
        for v in labels[2:]:
            dist["A", v] = 2
            dist["B", v] = 1
        rows = [",".join([""] + labels)]
        for x in labels:
            cells = [dist.get((x, y), dist.get((y, x), 0)) for y in labels]
            rows.append(",".join([x] + [str(c) for c in cells]))
        metric_path = profile_file("\n".join(rows) + "\n", "big.metric")
        path = profile_file(f"{m}: B > A\n")
        got, out, err = run(capsys, "distortion", path, "A", "--metric", metric_path)
        assert got == code
        if code == 0:
            assert json.loads(out)["result"]["value"] == 2.0
        else:
            assert "triangle" in err


class TestPairwiseLp:
    def test_bounded_value_and_witness(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "pairwise-lp", path, "A", "B", "--witness")
        assert code == 0
        assert report["result"]["status"] == "optimal"
        assert report["result"]["value"] == pytest.approx(2.0)
        metric = parse_metric(report["result"]["witness"])
        assert metric.labels[:3] == ("A", "B", "C")

    def test_unbounded_is_still_success(self, capsys, profile_file):
        path = profile_file("2: B > A\n")
        code, report = run_json(capsys, "pairwise-lp", path, "A", "B")
        assert code == 0
        assert report["result"] == {"status": "unbounded", "value": None}

    def test_lp_cap_env_override(self, capsys, monkeypatch, profile_file):
        path = profile_file(THREE_CYCLE)
        monkeypatch.setenv("MDX_LP_CAP", "3")
        code, _, err = run(capsys, "pairwise-lp", path, "A", "B")
        assert code == EXIT_CODES["rule"] == 3
        assert "cap" in err

    def test_witness_above_the_cap(self, capsys, profile_file):
        # Two distinct ballots fit the LP; a million voters do not fit a witness.
        path = profile_file("1000000: A > B\nB > A\n")
        code, report = run_json(capsys, "pairwise-lp", path, "A", "B")
        assert code == 0 and report["result"]["status"] == "optimal"
        code, _, err = run(capsys, "pairwise-lp", path, "A", "B", "--witness")
        assert code == EXIT_CODES["rule"] == 3
        assert "cap" in err

    def test_garbage_cap_is_a_parse_error(self, capsys, monkeypatch, profile_file):
        path = profile_file(THREE_CYCLE)
        monkeypatch.setenv("MDX_LP_CAP", "soup")
        code, _, err = run(capsys, "pairwise-lp", path, "A", "B")
        assert code == 2 and "MDX_LP_CAP" in err


class TestTournament:
    def test_profile_weights_and_symmetry(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "tournament", path, "--check-symmetry")
        assert code == 0
        assert report["result"]["m"] == 3
        assert report["result"]["symmetry"] == {
            "found": True,
            "cycle": ["A", "B", "C"],
        }

    def test_graph_file_mode(self, capsys, tmp_path):
        path = tmp_path / "penta.graph"
        path.write_text(PENTA_GRAPH)
        code, report = run_json(capsys, "tournament", str(path), "--graph", "--check-symmetry")
        assert code == 0
        result = report["result"]
        assert result["m"] == 10
        assert result["weights"]["A"]["B"] == {"num": 3, "den": 10, "decimal": 0.3}
        assert result["symmetry"]["cycle"] == ["A", "B", "C", "D", "E"]

    def test_supplied_tau_checked(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "tournament", path, "--tau", "B,C,A")
        assert code == 0
        assert report["result"]["symmetry"]["holds"] is True
        assert report["result"]["symmetry"]["cycle"] == ["A", "B", "C"]

    def test_breaking_tau_reported(self, capsys, profile_file):
        path = profile_file("2: A > B\n1: B > A\n")
        code, report = run_json(capsys, "tournament", path, "--tau", "B,A")
        assert code == 0
        assert report["result"]["symmetry"]["holds"] is False

    def test_tau_and_check_symmetry_exclude_each_other(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, out, err = run(capsys, "tournament", path, "--tau", "B,C,A", "--check-symmetry")
        assert code == 2 and out == ""
        assert err.endswith("error: argument --check-symmetry: not allowed with argument --tau\n")

    def test_bad_tau_is_a_parse_error(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, _, err = run(capsys, "tournament", path, "--tau", "B,C,Z")
        assert code == 2 and "--tau" in err

    def test_search_limit_maps_to_rule_error(self, capsys, profile_file):
        names = [chr(ord("A") + i) for i in range(9)]
        rows = [" > ".join(names[i:] + names[:i]) for i in range(9)]
        path = profile_file("\n".join(rows) + "\n", "nine.profile")
        code, _, err = run(capsys, "tournament", path, "--check-symmetry")
        assert code == 3 and "limit" in err

    def test_graph_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("names: A,B\n0 1\n")
        code, _, err = run(capsys, "tournament", str(path), "--graph")
        assert code == 2 and "line" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("names: A,B\n0 2/3\n2/3 0\n", 3),    # a pair does not sum to 1
            ("names: A,B\n1/2 1/2\n1/2 0\n", 2),  # a nonzero diagonal entry
            ("names: A,A\n0 1/2\n1/2 0\n", 1),    # a repeated name
        ],
        ids=["pair-sum", "diagonal", "repeated-name"],
    )
    def test_invalid_graph_is_a_parse_error(self, capsys, tmp_path, text, line):
        path = tmp_path / "invalid.graph"
        path.write_text(text)
        code, out, err = run(capsys, "tournament", str(path), "--graph")
        assert code == 2 and out == ""
        assert f"line {line}:" in err and "Traceback" not in err


# Seven candidates, five ballot types, 10,000 voters: equal-weight edges in
# ranked pairs and long widest paths in Schulze.
CLONES7 = """\
3100: A > B > C > D > E > F > G
2900: D > E > F > G > A > B > C
1700: G > F > C > B > A > E > D
1250: C > A > G > E > B > D > F
1050: F > D > B > A > G > C > E
"""

GOLDEN_COMMANDS = [
    *(("winner", "-", "--rule", rule) for rule in ("copeland", "ranked-pairs", "schulze", "weighted-uncovered")),
    ("tournament", "-", "--check-symmetry"),
]

GOLDEN_PROFILES = {
    "counterexample-relax1": lambda: serialize_profile(counterexample_relax1().profile),
    "counterexample-relax2": lambda: serialize_profile(counterexample_relax2().profile),
    "clones7": lambda: CLONES7,
}

# Float LP values, last bits included; the witness only where candidates +
# voters (4 + 5) fit under the cap.
GOLDEN_LP_CASES = [
    ("counterexample-relax1", ("pairwise-lp", "-", "A", "B", "--witness")),
    *((name, argv) for name in ("counterexample-relax2", "clones7") for argv in [("pairwise-lp", "-", "A", "B")]),
    *((name, argv) for name in GOLDEN_PROFILES
      for argv in [("distortion", "-", "A"), ("winner", "-", "--rule", "optimal-lp")]),
]

# Matching sets and matching-uncovered winners, on every fixture.
GOLDEN_MATCHING_CASES = [
    (name, argv) for name in GOLDEN_PROFILES
    for argv in [("matching-set", "-"), ("winner", "-", "--rule", "matching-uncovered")]
]


def _golden_reports() -> dict[str, str]:
    lines = (Path(__file__).parent / "golden_reports.txt").read_text().splitlines()
    return {key[2:]: line for key, line in zip(lines, lines[1:]) if line.startswith("{")}


class TestGoldenReports:
    """Reports pinned byte for byte: tournament weights, Copeland scores,
    ranked-pairs trails, Schulze strengths, matching sets, and LP values and
    witnesses to their last bit, print as they always have."""

    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("name", ["counterexample-relax2", "clones7"])
    def test_report_is_byte_identical(self, capsys, monkeypatch, name, argv):
        self.check(capsys, monkeypatch, name, argv)

    @pytest.mark.parametrize("name, argv", GOLDEN_LP_CASES, ids=[f"{n}: {' '.join(a)}" for n, a in GOLDEN_LP_CASES])
    def test_lp_report_is_byte_identical(self, capsys, monkeypatch, name, argv):
        self.check(capsys, monkeypatch, name, argv)

    @pytest.mark.parametrize("name, argv", GOLDEN_MATCHING_CASES, ids=[f"{n}: {' '.join(a)}" for n, a in GOLDEN_MATCHING_CASES])
    def test_matching_report_is_byte_identical(self, capsys, monkeypatch, name, argv):
        self.check(capsys, monkeypatch, name, argv)

    @staticmethod
    def check(capsys, monkeypatch, name, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_PROFILES[name]()))
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == _golden_reports()[f"{name}: {' '.join(argv)}"] + "\n"


COVER_TABLE_USERS = [
    (("winner", "--rule", "copeland"), 0),
    (("tournament",), 0),
    (("weighted-set",), 0),
    (("distortion", "A"), 0),
    (("matching-set",), 1),
    (("winner", "--rule", "matching-uncovered"), 1),
]


@pytest.mark.parametrize("argv, tables", COVER_TABLE_USERS, ids=[" ".join(a) for a, _ in COVER_TABLE_USERS])
def test_only_matching_commands_compute_the_cover_table(capsys, profile_file, cover_tables, argv, tables):
    # The elect and lp paths pay nothing for the table; a matching command
    # computes it once, however many cover graphs it builds.
    path = profile_file(serialize_profile(counterexample_relax2().profile))
    code, _ = run_json(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert len(cover_tables) == tables


class TestSetCommands:
    def test_matching_set(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "matching-set", path)
        assert code == 0
        assert report["result"] == {"set": ["A", "B", "C"], "empty": False, "count": 3}

    def test_weighted_set_default_is_golden(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "weighted-set", path)
        assert code == 0
        assert report["result"]["lam"] == "phi"
        assert report["result"]["set"] == ["A", "B", "C"]

    def test_weighted_set_rational_lambda(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, report = run_json(capsys, "weighted-set", path, "--lam", "1/2")
        assert code == 0
        assert report["result"]["lam"] == {"num": 1, "den": 2, "decimal": 0.5}

    def test_bad_lambda(self, capsys, profile_file):
        path = profile_file(THREE_CYCLE)
        code, _, err = run(capsys, "weighted-set", path, "--lam", "4/3")
        assert code == 2 and "--lam" in err


class TestVerifyConjecture:
    def test_verified_run(self, capsys):
        code, report = run_json(capsys, "verify-conjecture", "3", "4")
        assert code == 0
        result = report["result"]
        assert result["status"] == "verified"
        assert result["profiles_checked"] == count_canonical(3, 4)
        assert result["elapsed_seconds"] >= 0.0
        assert "counterexample" not in result

    def test_budget_exit(self, capsys):
        code, report = run_json(capsys, "verify-conjecture", "4", "4", "--budget", "1")
        assert code == EXIT_CODES["budget"] == 5
        assert report["result"]["status"] == "budget-exceeded"
        assert report["result"]["profiles_checked"] == 0

    def test_counterexample_exit(self, capsys, monkeypatch):
        fake = Verdict("counterexample", 3, 3, 17, 0.25, three_cycle().profile)
        monkeypatch.setattr("mdx.cli.verify_conjecture", lambda *a, **k: fake)
        code, report = run_json(capsys, "verify-conjecture", "3", "3")
        assert code == EXIT_CODES["counterexample"] == 1
        assert parse_profile(report["result"]["counterexample"]).m == 3

    def test_bad_sizes_are_parse_errors(self, capsys):
        code, _, err = run(capsys, "verify-conjecture", "1", "3")
        assert code == 2 and "n >= 2" in err

    def test_a_cell_too_large_for_the_tally_is_a_parse_error(self, capsys):
        argv = ["verify-conjecture", "2", str(2**40), "--budget", str(10**30)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "overflow" in err


class TestInstanceCommand:
    def test_every_builder_runs_with_defaults(self, capsys):
        for name in sorted(INSTANCE_BUILDERS):
            code, report = run_json(capsys, "instance", name)
            assert code == 0, name
            result = report["result"]
            assert result["n"] >= 1 and result["m"] >= 1 and result["notes"]
            parse_profile(result["profile"])

    def test_plain_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "instance", "three-cycle", "--plain")
        assert code == 0
        assert parse_profile(out) == three_cycle().profile

    def test_plain_does_not_leak_into_the_next_call(self, capsys):
        _, plain, _ = run(capsys, "instance", "three-cycle", "--plain")
        assert plain == THREE_CYCLE
        code, report = run_json(capsys, "instance", "three-cycle")
        assert code == 0 and report["command"] == "instance"

    def test_plain_flag_accepted_in_both_positions(self, capsys):
        _, before, _ = run(capsys, "--plain", "instance", "three-cycle")
        _, after, _ = run(capsys, "instance", "three-cycle", "--plain")
        assert before == after == THREE_CYCLE

    def test_rotational_parameters(self, capsys):
        code, report = run_json(capsys, "instance", "rotational", "--base", "B>A>C")
        assert code == 0 and report["result"]["name"] == "rotational-3"
        code, report = run_json(capsys, "instance", "rotational", "--n", "5")
        assert code == 0 and report["result"]["name"] == "rotational-5"

    def test_rotational_base_takes_the_profile_spacing(self, capsys):
        _, spaced = run_json(capsys, "instance", "rotational", "--base", "B > A > C")
        _, tight = run_json(capsys, "instance", "rotational", "--base", "B>A>C")
        assert spaced["result"] == tight["result"]

    @pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
    def test_params_echo_only_what_the_builder_reads(self, capsys, name):
        given = {"p": "1/3", "lam": "2/5", "m": 6, "base": "B>A>C", "n": 3}
        reads = {"rotational": ("base", "n"), "lower-left": ("p", "m"),
                 "lower-right": ("lam", "m"), "fairness-table": ("lam", "m")}
        flags = [arg for k, v in given.items() for arg in (f"--{k}", str(v))]
        code, report = run_json(capsys, "instance", name, *flags)
        assert code == 0
        assert report["inputs"]["params"] == {k: given[k] for k in reads.get(name, ())}
        _, report = run_json(capsys, "instance", name)
        assert set(report["inputs"]["params"]) <= set(reads.get(name, ()))

    def test_metric_out(self, capsys, tmp_path):
        out_path = tmp_path / "ll.metric"
        code, report = run_json(
            capsys, "instance", "lower-left", "--m", "4", "--metric-out", str(out_path)
        )
        assert code == 0
        metric = parse_metric(out_path.read_text())
        assert metric.n_candidates == 2 and metric.n_voters == 4
        assert report["result"]["metric"] == out_path.read_text()

    def test_metric_out_without_metric(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "instance", "three-cycle", "--metric-out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "no metric" in err

    def test_bad_parameter_values(self, capsys):
        code, _, err = run(capsys, "instance", "lower-left", "--p", "5/4")
        assert code == 2 and "0 < p" in err
        code, _, err = run(capsys, "instance", "lower-left", "--p", "x")
        assert code == 2 and "rational" in err

    def test_pipes_into_other_commands(self, capsys, monkeypatch):
        _, text, _ = run(capsys, "instance", "counterexample-relax1", "--plain")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, report = run_json(capsys, "matching-set", "-")
        assert code == 0
        assert report["result"]["set"] == ["D"]


FAILURE_INPUTS = {
    "bad.profile": "A > B\nA > C\n",
    "bad.graph": "names: A,B\n0 1\n",
    "bad.metric": ",A,B\nA,0,x\n",
    "cycle.profile": THREE_CYCLE,
    "fair.profile": "C > B > A\nB > A > C\n",
    "fair.metric": ",A,B,C,v1,v2\nA,0,4,4,5,3\nB,4,0,2,1,1\nC,4,2,0,1,3\nv1,5,1,1,0,2\nv2,3,1,3,2,0\n",
    "same.profile": "A > B > C\nA > B > C\n",
    "one.profile": "A > B\n",
    "one.metric": ",A,B,v1\nA,0,2,1\nB,2,0,1\nv1,1,1,0\n",
    "million.profile": "1000000: A > B\nB > A\n",
    "nine.profile": "".join(" > ".join("ABCDEFGHI"[i:] + "ABCDEFGHI"[:i]) + "\n" for i in range(9)),
}

# Every failure path of every subcommand: (argv, MDX_LP_CAP or None, exit
# code, the whole of stderr).  Inputs are the files above, named relative
# to the working directory so that stderr is the same on every run.
FAILURES = {
    "profile-parse": (["winner", "bad.profile", "--rule", "copeland"], None, 2,
                      "error: profile 'bad.profile': line 2: unknown candidate 'C'"),
    "graph-parse": (["tournament", "bad.graph", "--graph"], None, 2,
                    "error: graph 'bad.graph': line 3: expected 2 matrix rows, found 1"),
    "metric-parse": (["distortion", "fair.profile", "A", "--metric", "bad.metric"], None, 2,
                     "error: metric 'bad.metric': line 2: expected 2 data rows, found 1"),
    "cannot-read": (["winner", "missing.profile", "--rule", "copeland"], None, 2,
                    "error: cannot read 'missing.profile': [Errno 2] No such file or directory: 'missing.profile'"),
    "lp-cap-pairwise-lp": (["pairwise-lp", "cycle.profile", "A", "B"], "3", 3,
                           "error: LP needs 6 points (candidates + ballots), cap is 3"),
    "lp-cap-winner": (["winner", "cycle.profile", "--rule", "optimal-lp"], "3", 3,
                      "error: LP needs 6 points (candidates + ballots), cap is 3"),
    "lp-cap-distortion": (["distortion", "cycle.profile", "A"], "3", 3,
                          "error: LP needs 6 points (candidates + ballots), cap is 3"),
    "witness-cap": (["pairwise-lp", "million.profile", "A", "B", "--witness"], None, 3,
                    "error: witness has 1000003 candidates + voters, cap is 20"),
    "lp-cap-not-an-integer": (["pairwise-lp", "cycle.profile", "A", "B"], "soup", 2,
                              "error: MDX_LP_CAP='soup' is not an integer"),
    "lp-cap-below-one": (["pairwise-lp", "cycle.profile", "A", "B"], "0", 2,
                         "error: MDX_LP_CAP='0' must be at least 1"),
    "symmetry-limit": (["tournament", "nine.profile", "--check-symmetry"], None, 3,
                       "error: symmetry search over 9 candidates exceeds the limit of 8"),
    "inconsistent-metric": (["distortion", "same.profile", "A", "--metric", "fair.metric"], None, 4,
                            "error: metric is not consistent with the profile"),
    "k-out-of-range": (["distortion", "one.profile", "A", "--metric", "one.metric", "--k", "5"], None, 2,
                       "error: k must be in 1..1"),
    "metric-size": (["distortion", "cycle.profile", "A", "--metric", "fair.metric"], None, 2,
                    "error: metric has 2 voters, profile has 3"),
    "verify-sizes": (["verify-conjecture", "1", "3"], None, 2,
                     "error: need n >= 2 candidates and m >= 1 voters"),
    "verify-overflow": (["verify-conjecture", "2", str(2**40), "--budget", str(10**30)], None, 2,
                        "error: 2 candidates and 1099511627776 voters overflow the 64-bit majority tally"),
    "instance-p-range": (["instance", "lower-left", "--p", "5/4"], None, 2, "error: need 0 < p <= 1"),
    "instance-p-rational": (["instance", "lower-left", "--p", "x"], None, 2, "error: --p 'x' is not a rational"),
    "instance-lam-rational": (["instance", "lower-right", "--lam", "1/0"], None, 2,
                              "error: --lam '1/0' is not a rational"),
    "instance-base-short": (["instance", "rotational", "--base", "B>A", "--n", "3"], None, 2,
                            "error: base must be a permutation of the n candidates"),
    "instance-no-metric": (["instance", "three-cycle", "--metric-out", "x.csv"], None, 2,
                           "error: instance 'three-cycle' carries no metric"),
    "instance-base-unknown": (["instance", "rotational", "--base", "A>B>Z"], None, 2,
                              "error: base names unknown candidate 'Z'"),
    "instance-base-unknown-spaced": (["instance", "rotational", "--base", "A > B > Z"], None, 2,
                                     "error: base names unknown candidate 'Z'"),
    "instance-cannot-write": (["instance", "lower-left", "--metric-out", "missing/x.csv"], None, 2,
                              "error: cannot write 'missing/x.csv': [Errno 2] No such file or directory: 'missing/x.csv'"),
    "bad-lam": (["weighted-set", "cycle.profile", "--lam", "4/3"], None, 2,
                "error: bad --lam '4/3': rational threshold must lie in [0,1]"),
    "bad-tau": (["tournament", "cycle.profile", "--tau", "B,C,Z"], None, 2,
                "error: --tau must list images of A,B,C in order, got 'B,C,Z'"),
    "witness-with-metric": (["distortion", "fair.profile", "A", "--metric", "fair.metric", "--witness"], None, 2,
                            "error: --witness is for LP mode, not --metric"),
    "k-without-metric": (["distortion", "fair.profile", "A", "--k", "1"], None, 2,
                         "error: --k and --tol need --metric"),
    "unknown-candidate": (["distortion", "fair.profile", "Z"], None, 2,
                          "error: candidate 'Z' not in profile ('C', 'B', 'A')"),
    "unknown-opponent": (["pairwise-lp", "fair.profile", "A", "Z"], None, 2,
                         "error: candidate 'Z' not in profile ('C', 'B', 'A')"),
    # A NaN or infinite tolerance would skip the consistency check, and a
    # negative one would fail a consistent metric.
    "tol-nan": (["distortion", "same.profile", "A", "--metric", "fair.metric", "--tol", "nan"], None, 2,
                "error: tolerance must be finite and >= 0, got nan"),
    "tol-inf": (["distortion", "same.profile", "A", "--metric", "fair.metric", "--tol", "inf"], None, 2,
                "error: tolerance must be finite and >= 0, got inf"),
    "tol-negative": (["distortion", "fair.profile", "A", "--metric", "fair.metric", "--tol", "-1"], None, 2,
                     "error: tolerance must be finite and >= 0, got -1.0"),
    # argparse prints the usage first, wrapped at COLUMNS (80 in the test).
    "workers-zero-winner": (
        ["winner", "cycle.profile", "--rule", "optimal-lp", "--workers", "0"], None, 2,
        "usage: mdx winner [-h] [--plain] --rule\n"
        "                  {copeland,uncovered,ranked-pairs,schulze,weighted-uncovered,matching-uncovered,optimal-lp}\n"
        "                  [--workers WORKERS]\n"
        "                  profile\n"
        "mdx winner: error: argument --workers: must be an integer >= 1, got '0'"),
    "workers-zero-verify": (
        ["verify-conjecture", "3", "3", "--workers", "0"], None, 2,
        "usage: mdx verify-conjecture [-h] [--plain] [--workers WORKERS]\n"
        "                             [--budget BUDGET]\n"
        "                             n m\n"
        "mdx verify-conjecture: error: argument --workers: must be an integer >= 1, got '0'"),
}


@pytest.mark.parametrize("argv, cap, code, err", FAILURES.values(), ids=FAILURES)
def test_failure_exit_code_and_message(capsys, monkeypatch, tmp_path, argv, cap, code, err):
    for name, text in FAILURE_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    if cap is not None:
        monkeypatch.setenv("MDX_LP_CAP", cap)
    assert run(capsys, *argv) == (code, "", err + "\n")


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_rule_rejected_by_parser(self, capsys):
        assert main(["winner", "x.profile", "--rule", "borda"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["distortion", "x.profile", "A", "--workers", "1"],
            ["matching-set", "x.profile", "--no-fast-paths"],
            ["verify-conjecture", "3", "2", "--no-fast-paths"],
        ],
    )
    def test_removed_flags_rejected_by_parser(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "winner", "/nonexistent/p.txt", "--rule", "copeland")
        assert code == 2 and "cannot read" in err

    def test_malformed_profile(self, capsys, profile_file):
        path = profile_file("A > B\nA > C\n")
        code, _, err = run(capsys, "winner", path, "--rule", "copeland")
        assert code == 2 and "line 2" in err
