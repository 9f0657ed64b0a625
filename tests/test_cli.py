"""Tests for the command-line front end."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric import cli
from qtoric.lattice import IntMatrix
from qtoric.oracle import MonomialWitness, builtin_witness, ring_iso_search
from qtoric.quasitoric import CharPair, cohomology_presentation


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _zero_pair(n, m):
    return {"n": n, "m": m, "a": [0] * m, "b": [0] * n}


def write_pair(tmp_path, name, n, m, a, b):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "m": m, "a": list(a), "b": list(b)}))
    return str(path)


class TestValidate:
    def test_valid_pair(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (2,), (1, 0))
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report == {"valid": True, "oracle_valid": True, "agreement": True}

    def test_invalid_pair_reports_cleanly(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 1, 1, (3,), (1,))
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 0
        assert json.loads(out)["valid"] is False

    def test_zero_pair(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 1, 1, (0,), (0,))
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        doc = json.dumps({"n": 1, "m": 1, "a": [0], "b": [0]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run_cli(["validate", "-"], capsys)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "m": 1, "a": [%s], "b": [0]}' % ("1" * 5000),  # past the digit limit
            "[" * 100000,  # nested past the recursion limit
        ],
        ids=["huge-integer", "deep-nesting"],
    )
    def test_unparseable_json(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(["classify", "-"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed JSON")

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "a": [2]}))
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["validate", "/no/such/file.json"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_boolean_dimension_rejected(self, capsys, monkeypatch):
        doc = json.dumps({"n": True, "m": 1, "a": [2], "b": [1]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, err = run_cli(["classify", "-"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_tsv(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (2,), (1, 0))
        code, out, _ = run_cli(["validate", path, "--format", "tsv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "valid\toracle_valid\tagreement"
        assert lines[1] == "True\tTrue\tTrue"


class TestClassify:
    def test_label_fields(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 2, (2, 2), (1, 0))
        code, out, _ = run_cli(["classify", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["family"] == "nonbott"
        assert report["params"] == {"s": 1, "r": 1, "orientation": "a2"}

    def test_invalid_pair_exit_code(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 1, 1, (1,), (1,))
        code, _, err = run_cli(["classify", path], capsys)
        assert code == 3
        assert "validity" in err

    def test_tsv_row(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (0,), (0, 0))
        code, out, _ = run_cli(["classify", path, "--format", "tsv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family\tn\tm")
        assert lines[1].startswith("product\t2\t1")


class TestCompare:
    def test_reflexive(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (2,), (1, 0))
        code, out, _ = run_cli(["compare", path, path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["homeomorphic"] is True
        assert report["rule"] == "reflexive"

    def test_array_document(self, capsys, monkeypatch):
        doc = json.dumps(
            [
                {"n": 3, "m": 2, "a": [2, 0], "b": [1, 0, 0]},
                {"n": 3, "m": 2, "a": [2, 2], "b": [1, 1, 1]},
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run_cli(["compare", "-"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["homeomorphic"] is True
        assert report["rule"] == "sr-fold"

    def test_two_stdin_rejected(self, capsys):
        code, _, err = run_cli(["compare", "-", "-"], capsys)
        assert code == 2
        assert "standard input" in err

    def test_bad_array_length(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[]"))
        code, _, err = run_cli(["compare", "-"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["compare", "oracle-iso"])
    def test_third_input_rejected(self, tmp_path, capsys, command):
        path = write_pair(tmp_path, "p.json", 2, 1, (2,), (1, 0))
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli([command, path, path, missing], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestEnumerate:
    def test_square_of_segments(self, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--n", "1", "--m", "1", "--bound", "2"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 3
        assert [c["family"] for c in report["classes"]] == [
            "product",
            "bott-base-n",
            "connsum-plus",
        ]

    def test_tsv_table(self, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--n", "1", "--m", "1", "--bound", "2", "--format", "tsv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].split("\t")[0] == "family"

    def test_bad_dimensions(self, capsys):
        code, _, err = run_cli(["enumerate", "--n", "1", "--m", "2"], capsys)
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        first = run_cli(["enumerate", "--n", "2", "--m", "2", "--bound", "2"], capsys)
        second = run_cli(["enumerate", "--n", "2", "--m", "2", "--bound", "2"], capsys)
        assert first == second


class TestCount:
    def test_documented_value(self, capsys):
        code, out, _ = run_cli(["count", "--n", "3", "--m", "3"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_tsv(self, capsys):
        code, out, _ = run_cli(
            ["count", "--n", "3", "--m", "2", "--format", "tsv"], capsys
        )
        assert code == 0
        assert out.splitlines()[1] == "3\t2\t4"


class TestCohomology:
    def test_report_shape(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (2,), (1, 0))
        code, out, _ = run_cli(["cohomology", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["presentation"]["gen1"]["degree"] == 3
        assert report["presentation"]["gen2"]["degree"] == 2
        assert sum(report["graded_ranks"]) == 6
        assert report["torsion_free"] is True
        assert report["graded_ranks"] == report["h_vector"]


class TestKernel:
    def test_basis(self, tmp_path, capsys):
        path = write_pair(tmp_path, "p.json", 2, 1, (1,), (2, 0))
        code, out, _ = run_cli(["kernel", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 2
        assert report["ambient_dim"] == 5
        assert len(report["basis"]) == 2


class TestOracleIso:
    def test_fold_pair_agreement(self, capsys, monkeypatch):
        doc = json.dumps(
            [
                {"n": 2, "m": 2, "a": [2, 0], "b": [1, 0]},
                {"n": 2, "m": 2, "a": [2, 2], "b": [1, 0]},
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run_cli(["oracle-iso", "-"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert report["homeomorphic"] is True
        assert report["agreement"] is True

    def test_negative_within_bound(self, capsys, monkeypatch):
        doc = json.dumps(
            [
                {"n": 3, "m": 1, "a": [1], "b": [2, 0, 0]},
                {"n": 3, "m": 1, "a": [2], "b": [1, 0, 0]},
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run_cli(["oracle-iso", "-", "--bound", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is False
        assert report["homeomorphic"] is False
        assert report["agreement"] is True

    def test_negative_bound_is_usage_error(self, capsys, monkeypatch):
        doc = json.dumps(
            [
                {"n": 2, "m": 2, "a": [2, 0], "b": [1, 0]},
                {"n": 2, "m": 2, "a": [2, 2], "b": [1, 0]},
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, err = run_cli(["oracle-iso", "-", "--bound", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_generator_degree_mismatch_is_usage_error(self, capsys, monkeypatch):
        # generator degrees (4, 2) against (3, 3): no graded isomorphism to
        # search for
        doc = json.dumps(
            [
                {"n": 3, "m": 1, "a": [0], "b": [0, 0, 0]},
                {"n": 2, "m": 2, "a": [0, 0], "b": [0, 0]},
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, err = run_cli(["oracle-iso", "-"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


# one input per entry of cli.SIZE_LIMITS, each one past its limit
def _bott_pair(n, m, entry):
    return {"n": n, "m": m, "a": [entry] * m, "b": [0] * n}


_BREACHES = {
    ("validate", "n + m"): (["validate", "-"], _zero_pair(17, 16)),
    ("classify", "n + m"): (["classify", "-"], _zero_pair(65, 64)),
    ("classify", "entry digits"): (["classify", "-"], _bott_pair(1, 1, -(10**100))),
    ("compare", "n + m"): (["compare", "-"], [_zero_pair(1, 1), _zero_pair(65, 64)]),
    ("compare", "entry digits"): (
        ["compare", "-"],
        [_zero_pair(1, 1), _bott_pair(2, 1, 10**100)],
    ),
    ("cohomology", "n + m"): (["cohomology", "-"], _zero_pair(8, 7)),
    # uncapped, printing the presentation raised ValueError: its
    # coefficients passed the interpreter's digit limit for integers
    ("cohomology", "entry digits"): (["cohomology", "-"], _bott_pair(2, 2, 10**4000 - 1)),
    ("kernel", "n + m"): (["kernel", "-"], _zero_pair(17, 16)),
    ("oracle-iso", "n + m"): (["oracle-iso", "-"], [_zero_pair(8, 7)] * 2),
    ("oracle-iso", "--bound"): (
        ["oracle-iso", "-", "--bound", "11"],
        [_zero_pair(2, 1)] * 2,
    ),
    ("enumerate", "--n"): (["enumerate", "--n", "9", "--m", "1"], None),
    ("enumerate", "--bound"): (
        ["enumerate", "--n", "2", "--m", "1", "--bound", "5"],
        None,
    ),
    # uncapped, the count passed the same digit limit when printed
    ("count", "--n"): (["count", "--n", str(10**4000 + 1), "--m", "1"], None),
    ("witness-check", "--n"): (
        ["witness-check", "--family", "fold-r", "--n", "33", "--m", "1", "--s", "1", "--r", "1"],
        None,
    ),
    ("witness-check", "--m"): (
        ["witness-check", "--family", "fold-s", "--n", "1", "--m", "33", "--s", "1", "--r", "1"],
        None,
    ),
}


class TestSizeLimits:
    @pytest.mark.parametrize(
        "command,quantity",
        [(c, q) for c, limits in cli.SIZE_LIMITS.items() for q in limits],
    )
    def test_breach_is_usage_error(self, capsys, monkeypatch, command, quantity):
        argv, doc = _BREACHES[(command, quantity)]
        if doc is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        limit = cli.SIZE_LIMITS[command][quantity]
        assert err.startswith("error: %s %s must be at most %d," % (command, quantity, limit))

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_zero_pair(7, 7))))
        assert run_cli(["cohomology", "-"], capsys)[0] == 0
        digits = cli.SIZE_LIMITS["cohomology"]["entry digits"]
        doc = json.dumps(_bott_pair(2, 1, -(10**digits - 1)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert run_cli(["cohomology", "-"], capsys)[0] == 0
        largest = str(cli.SIZE_LIMITS["count"]["--n"])
        assert run_cli(["count", "--n", largest, "--m", largest], capsys)[0] == 0
        doc = json.dumps([_zero_pair(2, 1), _zero_pair(2, 1)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert run_cli(["oracle-iso", "-", "--bound", "10"], capsys)[0] == 0
        code, _, _ = run_cli(["enumerate", "--n", "8", "--m", "8", "--bound", "1"], capsys)
        assert code == 0
        largest = _bott_pair(64, 64, -(10**100 - 1))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(largest)))
        assert run_cli(["classify", "-"], capsys)[0] == 0
        doc = json.dumps([largest, _bott_pair(64, 64, 10**100 - 2)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert run_cli(["compare", "-"], capsys)[0] == 0


class TestWitnessCheck:
    def test_repeat_fill(self, capsys):
        code, out, _ = run_cli(
            ["witness-check", "--family", "repeat-fill", "--n", "2", "--a", "1", "--b", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["witness"]["t"] == [[1, 2], [0, -1]]

    def test_fold_families(self, capsys):
        for family in ("fold-r", "fold-s"):
            code, out, _ = run_cli(
                [
                    "witness-check",
                    "--family",
                    family,
                    "--n",
                    "3",
                    "--m",
                    "2",
                    "--s",
                    "1",
                    "--r",
                    "1",
                ],
                capsys,
            )
            assert code == 0
            assert json.loads(out)["ok"] is True

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(
            ["witness-check", "--family", "repeat-fill", "--n", "2", "--a", "1", "--b", "3"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize(
        "family, present",
        [
            ("repeat-fill", []),
            ("repeat-fill", ["--a", "1"]),
            ("fold-r", []),
            ("fold-r", ["--m", "2", "--s", "1"]),
            ("fold-s", []),
            ("fold-s", ["--s", "1", "--r", "1"]),
        ],
    )
    def test_missing_parameters_are_usage_errors(self, capsys, family, present):
        code, out, err = run_cli(
            ["witness-check", "--family", family, "--n", "3"] + present, capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness-check", "--family", "bogus", "--n", "2"])
        assert exc.value.code == 2


def _run_on_one_stream(argv, stdin_text, monkeypatch):
    # stdout and stderr share one buffer, so the order of report and
    # message shows
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
        code = cli.main(argv)
    return code, stream.getvalue()


def _json_text(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_FOLD_PAIRS = [
    {"n": 2, "m": 2, "a": [2, 0], "b": [1, 0]},
    {"n": 2, "m": 2, "a": [2, 2], "b": [1, 0]},
]


class TestConsistencyFailure:
    """Exit 4: the full report goes to stdout first, then the message to
    stderr.  Each cross-check is made to disagree by replacing the oracle
    or the closed form that the front end imported."""

    @pytest.mark.parametrize(
        "fmt, report",
        [
            ("json", _json_text({"valid": True, "oracle_valid": False, "agreement": False})),
            ("tsv", "valid\toracle_valid\tagreement\nTrue\tFalse\tFalse\n"),
        ],
        ids=["json", "tsv"],
    )
    def test_validate(self, monkeypatch, fmt, report):
        monkeypatch.setattr(cli, "validate_bruteforce", lambda cp: False)
        code, text = _run_on_one_stream(
            ["validate", "-", "--format", fmt], json.dumps(_zero_pair(2, 1)), monkeypatch
        )
        assert code == 4
        assert text == report + (
            "internal consistency failure: validity closed form disagrees with brute force\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_witness_check(self, monkeypatch, fmt):
        monkeypatch.setattr(cli, "witness_check", lambda u, u_prime, witness: False)
        argv = ["witness-check", "--family", "fold-r", "--n", "3", "--m", "2", "--s", "1", "--r", "1"]
        code, text = _run_on_one_stream(argv + ["--format", fmt], "", monkeypatch)
        assert code == 4
        witness = builtin_witness("fold-r", n=3, m=2, s=1, r=1)[2]
        if fmt == "json":
            report = _json_text({"family": "fold-r", "ok": False, "witness": witness.to_json_dict()})
        else:
            report = "family\tok\nfold-r\tFalse\n"
        assert text == report + (
            "internal consistency failure: built-in certificate failed its own check\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_broken_builtin_certificate(self, monkeypatch, fmt):
        # a certificate the program builds itself is not user input: a
        # broken one is an internal failure, found by witness_check
        def broken_witness(*args, **kwargs):
            u, u_prime, (s, t) = builtin_witness(*args, **kwargs)
            rows = s.to_rows()
            doubled = IntMatrix.from_rows([[2 * x for x in rows[0]]] + list(rows[1:]))
            return u, u_prime, MonomialWitness(doubled, t)

        monkeypatch.setattr(cli, "builtin_witness", broken_witness)
        argv = ["witness-check", "--family", "fold-r", "--n", "3", "--m", "2", "--s", "1", "--r", "1"]
        code, text = _run_on_one_stream(argv + ["--format", fmt], "", monkeypatch)
        assert code == 4
        witness = broken_witness("fold-r", n=3, m=2, s=1, r=1)[2]
        if fmt == "json":
            report = _json_text({"family": "fold-r", "ok": False, "witness": witness.to_json_dict()})
        else:
            report = "family\tok\nfold-r\tFalse\n"
        assert text == report + (
            "internal consistency failure: built-in certificate failed its own check\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_oracle_iso_found_but_separated(self, monkeypatch, fmt):
        monkeypatch.setattr(cli, "homeomorphic", lambda cp1, cp2: (False, "forced"))
        code, text = _run_on_one_stream(
            ["oracle-iso", "-", "--format", fmt], json.dumps(_FOLD_PAIRS), monkeypatch
        )
        assert code == 4
        p, q = (cohomology_presentation(CharPair.from_json_dict(d)) for d in _FOLD_PAIRS)
        report = ring_iso_search(p, q, 3).to_json_dict()
        assert report["found"] is True
        if fmt == "json":
            report.update(homeomorphic=False, rule="forced", agreement=False)
            report = _json_text(report)
        else:
            report = "found\thomeomorphic\trule\tagreement\nTrue\tFalse\tforced\tFalse\n"
        assert text == report + (
            "internal consistency failure: bounded search found an isomorphism "
            "between classes the closed form separates\n"
        )

    def test_oracle_iso_miss_within_bound_is_not_a_failure(self, monkeypatch):
        # the search is one-sided: finding nothing within the bound does not
        # contradict a positive verdict, so this exits 0 with agreement false
        code, text = _run_on_one_stream(
            ["oracle-iso", "-", "--bound", "0"], json.dumps(_FOLD_PAIRS), monkeypatch
        )
        assert code == 0
        assert json.loads(text) == {
            "found": False,
            "bound": 0,
            "homeomorphic": True,
            "rule": "sr-fold",
            "agreement": False,
        }


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
entries = st.lists(st.integers(-3, 3), max_size=7)
# well-formed pair documents, often valid (a zero vector always is)
shaped_pairs = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda m: st.fixed_dictionaries(
            {
                "n": st.just(n),
                "m": st.just(m),
                "a": st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                "b": st.just([0] * n) | st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            }
        )
    )
)
# shaped ones, ones with loose fields, and ones with a key dropped or an
# arbitrary value swapped in
pair_docs = st.one_of(
    shaped_pairs,
    st.fixed_dictionaries(
        {"n": st.integers(-1, 7), "m": st.integers(-1, 7), "a": entries, "b": entries}
    ),
    st.dictionaries(st.sampled_from(["n", "m", "a", "b"]), json_values | st.integers(-1, 7)),
)
documents = st.one_of(json_values, pair_docs, st.lists(pair_docs, max_size=3))
stdin_texts = st.one_of(documents.map(json.dumps), st.text(max_size=30))
argv_tokens = st.one_of(
    st.sampled_from(
        ["-", "no/such/pair.json", "--n", "--m", "--bound", "--format", "json", "tsv",
         "--family", "repeat-fill", "fold-r", "fold-s", "--s", "--r", "--a", "--b", "--help"]
    ),
    st.integers(-3, 12).map(str),
    st.integers().map(str),
)
commands = st.sampled_from(
    ["validate", "classify", "compare", "enumerate", "count", "cohomology", "kernel",
     "oracle-iso", "witness-check"]
)


def _run_in_process(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse reports bad flags this way
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    # the deadline fails any input that runs unbounded; the size caps keep
    # every admissible input well inside it
    @given(commands, st.lists(argv_tokens, max_size=8), stdin_texts)
    @settings(max_examples=300, deadline=timedelta(seconds=5))
    def test_exit_codes_hold(self, command, extra, stdin_text):
        code, out, err = _run_in_process([command] + extra, stdin_text)
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            assert err

    @given(
        st.sampled_from(["validate", "classify", "compare", "cohomology", "kernel", "oracle-iso"]),
        shaped_pairs,
        shaped_pairs,
        st.sampled_from(["json", "tsv"]),
    )
    @settings(max_examples=300, deadline=timedelta(seconds=5))
    def test_pair_documents_on_stdin(self, command, doc1, doc2, fmt):
        doc = [doc1, doc2] if command in ("compare", "oracle-iso") else doc1
        code, out, err = _run_in_process([command, "-", "--format", fmt], json.dumps(doc))
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            assert err


# argv, stdin, stdout, stderr and exit code of every subcommand in JSON and
# TSV, with usage errors, invalid pairs and size breaches, as recorded once:
# the CLI's output bytes are part of its contract
_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", _GOLDEN, ids=[" ".join(c["argv"]) for c in _GOLDEN])
def test_golden_output(case):
    assert _run_in_process(case["argv"], case["stdin"]) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


def test_module_entry_point():
    # the child process does not inherit the path that pytest's settings
    # give this one, so it gets the package's source directory explicitly
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "qtoric", "count", "--n", "3", "--m", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 4


# value types whose raw constructor checks nothing
_UNCHECKED_TYPES = {"CharPair", "IntMatrix", "HomogPoly", "LatticeBasis", "MonomialWitness"}


def test_cli_builds_values_only_through_checked_constructors():
    # outside data must enter through CharPair.from_json_dict; a raw
    # constructor call in the front end would skip every input check
    tree = ast.parse(Path(cli.__file__).read_text())
    aliases = set(_UNCHECKED_TYPES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.name in _UNCHECKED_TYPES and a.asname)
    raw_calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in aliases)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in _UNCHECKED_TYPES)
        )
    ]
    assert raw_calls == [], "raw constructor calls in cli.py at lines %s" % raw_calls
