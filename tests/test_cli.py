import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsieve import semigroup
from thinsieve.cli import _CHUNK, COMMANDS, Table, _text, _write, main
from thinsieve.cf import parse_word, serialize_word, word_to_matrix
from thinsieve.errors import InternalInvariantError
from thinsieve.geodesics import geodesic_profile
from thinsieve.semigroup import (
    _ball_words,
    _elements,
    cyclic_classes,
    trace_fiber,
    trace_multiplicity,
)
from thinsieve.sieve import BallSource, remainder_profile, sift_values


def run(args):
    return main([str(a) for a in args])


def test_enumerate_artifact(tmp_path):
    out = tmp_path / "ball.jsonl"
    assert run(["enumerate", "--alphabet", 2, "--norm", 3, "--output", out]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records == [{"matrix": [2, 1, 1, 1], "normSq": 7, "trace": 3, "word": "1,1"}]
    manifest = json.loads((tmp_path / "ball.jsonl.manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert "wall_time_s" in manifest


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["densities", "--modulus", 15, "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_densities_rows(tmp_path):
    out = tmp_path / "densities.csv"
    assert run(["densities", "--modulus", 15, "--output", out]) == 0
    rows = {r["q"]: r for r in csv.DictReader(out.open())}
    assert rows["15"]["beta"] == "5/16"
    assert rows["2"]["beta"] == "2/3"
    assert rows["15"]["sqrt4_count"] == "4"
    assert "12" not in rows  # non-square-free moduli are skipped


def test_class_cycles_disc_1365(tmp_path):
    out = tmp_path / "cycles.json"
    assert run(["class-cycles", "--disc", 1365, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["cycle_count"] == 8
    assert payload["sign_merged_count"] == 4
    words = {c["period_word"] for c in payload["cycles"]}
    assert words == {"1,35", "5,7", "1,1,1,11", "1,1,1,2,1,2"}


def test_class_census_cli(tmp_path):
    out = tmp_path / "census.json"
    assert run(["class-census", "--disc", 1365, "--alphabet", 35, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["classes"]) == 4


def test_trace_fiber_cli(tmp_path):
    out = tmp_path / "fiber.jsonl"
    assert run(["trace-fiber", "--alphabet", 2, "--trace", 37, "--output", out]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_geodesic_profile_and_arcs(tmp_path):
    arcs = tmp_path / "arcs.csv"
    assert run(["geodesic", "--word", "1,1,1,2,1,2", "--emit", arcs]) == 0
    assert len(arcs.read_text().splitlines()) == 7  # header + 6 rotations
    profile = tmp_path / "profile.json"
    assert run(["geodesic", "--word", "1,35", "--emit", profile]) == 0
    payload = json.loads(profile.read_text())
    assert payload["discriminant"] == 1365
    assert payload["max_height"] == pytest.approx(18.472953201911167)


@pytest.mark.parametrize("digit, length", [(9, 200), (1, 2000)])
def test_geodesic_of_a_word_past_the_float_range(tmp_path, capsys, digit, length):
    # D = tr^2 - 4 has more than 1,023 bits, so no float holds it; each
    # rotation of a constant word a...a has its height in (a/2, (a + 2)/2)
    word = ",".join([str(digit)] * length)
    arcs, profile = tmp_path / "arcs.csv", tmp_path / "profile.json"
    assert run(["geodesic", "--word", word, "--emit", arcs]) == 0
    assert run(["geodesic", "--word", word, "--emit", profile]) == 0
    assert "Traceback" not in capsys.readouterr().err
    radii = [float(row["radius"]) for row in csv.DictReader(arcs.open())]
    heights = json.loads(profile.read_text())["rotation_heights"]
    assert len(radii) == len(heights) == length
    assert all(digit / 2 < h < (digit + 2) / 2 for h in radii + heights)


def test_geodesic_profile_of_a_discriminant_past_4300_digits(tmp_path, capsys):
    # D of 2,300 nines has 4,414 digits, more than json writes or reads as an
    # int, so it is read back as its digits
    word = ",".join(["9"] * 2300)
    profile = tmp_path / "profile.json"
    assert run(["geodesic", "--word", word, "--emit", profile]) == 0
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(profile.read_text(), parse_int=str)
    assert _int(payload["discriminant"]) == geodesic_profile(parse_word(word)).discriminant
    assert len(payload["rotation_heights"]) == 2300


def test_dimension_and_expsum(tmp_path):
    out = tmp_path / "dim.csv"
    assert run(["dimension", "--alphabets", "2", "--depth", 8, "--output", out]) == 0
    row = next(csv.DictReader(out.open()))
    assert float(row["lower"]) < 0.5313 < float(row["upper"])
    out = tmp_path / "exp.csv"
    assert run(["expsum", "--prime", 5, "--samples", 10, "--output", out]) == 0
    for row in csv.DictReader(out.open()):
        assert abs(float(row["value"])) <= float(row["bound"]) + 1e-9


def test_expsum_redraws_an_all_zero_sample(tmp_path):
    # at p = 2 and seed 15 the first two draws are (0, 0, 0, 0); no character
    # sum is taken at the zero vector
    out = tmp_path / "exp.csv"
    assert run(["expsum", "--prime", 2, "--samples", 1, "--seed", 15, "--output", out]) == 0
    rows = [row for row in csv.DictReader(out.open()) if row["kind"] == "charsum"]
    assert len(rows) == 1 and rows[0]["argument"] != "0,0,0,0"


def test_sieve_remainders_cli(tmp_path):
    out = tmp_path / "rem.csv"
    assert run(["sieve-remainders", "--alphabet", 2, "--norm", 100, "--cutoff", 10, "--output", out]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["q", "A_q", "beta_times_size", "remainder"]
    assert rows[-1][0] == "summary"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alphabet=2\nnorm=3\n")
    out = tmp_path / "ball.jsonl"
    assert run(["enumerate", "--config", cfg, "--norm", 3, "--output", out]) == 0
    assert len(out.read_text().splitlines()) == 1
    # flags win over the config file
    out2 = tmp_path / "ball2.jsonl"
    cfg.write_text("alphabet=1\nnorm=3\n")
    assert run(["enumerate", "--config", cfg, "--alphabet", 2, "--norm", 3, "--output", out2]) == 0
    assert out.read_text() == out2.read_text()


def test_exit_codes(tmp_path):
    assert run(["not-a-command"]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no_such_key=1\n")
    assert run(["enumerate", "--config", bad_cfg, "--norm", 3]) == 2
    assert run(["enumerate", "--norm", 3, "--config"]) == 2
    assert run(["enumerate", "--norm", 3, "--config", tmp_path / "missing.cfg"]) == 2
    no_eq_cfg = tmp_path / "no_eq.cfg"
    no_eq_cfg.write_text("alphabet 2\n")
    assert run(["enumerate", "--config", no_eq_cfg, "--norm", 3]) == 2
    # caps: square-free SL2 enumeration cap via expsum on a huge prime
    assert run(["expsum", "--prime", 1009, "--samples", 1, "--output", tmp_path / "x.csv"]) == 3
    # invalid values
    assert run(["densities", "--modulus", "-3", "--output", tmp_path / "d.csv"]) == 2


def test_sieve_remainders_bilinear_mode(tmp_path):
    out = tmp_path / "rem_pi.csv"
    code = run(
        ["sieve-remainders", "--use-pi", "--xi-bound", 40, "--aleph-bound", 1e6,
         "--omega-bound", 12, "--cutoff", 10, "--output", out]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[-1][0] == "summary"
    assert int(rows[-1][1]) == 660  # |Xi| * |Aleph| * |Omega| for these bounds


def test_aleph_cli(tmp_path):
    out = tmp_path / "aleph.jsonl"
    assert run(["aleph", "--bound", 1e6, "--modulus", 2, "--output", out]) == 0
    assert len(out.read_text().splitlines()) == 6
    summary = json.loads((tmp_path / "aleph.summary.json").read_text())
    assert summary["error_at_q"]["2"] == 0.0


def test_dimension_cap_exit_code(tmp_path):
    assert run(["dimension", "--alphabets", "10", "--depth", 9, "--output", tmp_path / "d.csv"]) == 3


def test_squarefree_count_cli(tmp_path):
    out = tmp_path / "sf.csv"
    assert run(["squarefree-count", "--alphabet", 2, "--norm", 100, "--output", out]) == 0
    row = next(csv.DictReader(out.open()))
    assert row["squarefree_count"] == "27"
    assert row["ball_count"] == "98"
    assert row["fraction"] == "27/98"


def _walks(tmp_path, monkeypatch, argv) -> list:
    """The block walks one successful CLI run makes."""
    import thinsieve.semigroup as semigroup

    walk, calls = semigroup._frontier, []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(semigroup, "_frontier", counted)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    return calls


@pytest.mark.parametrize("argv", [
    ["squarefree-count", "--alphabet", 3, "--norm", 1000],
    ["hensley-fit", "--alphabet", 3, "--norms", "100,300,1000,3000"],
], ids=lambda v: v[0])
def test_one_ball_walk_per_step(tmp_path, monkeypatch, argv):
    assert len(_walks(tmp_path, monkeypatch, argv)) == 1


# the three sieve steps read one source boundary: each builds its multiset once
@pytest.mark.parametrize("command", ["sieve-remainders", "almost-prime", "squarefree-count"])
def test_sieve_steps_sift_their_source_once(tmp_path, monkeypatch, command):
    import thinsieve.cli as cli

    sift, sources = cli.sift_values, []

    def counted(source):
        sources.append(source)
        return sift(source)

    monkeypatch.setattr(cli, "sift_values", counted)
    monkeypatch.chdir(tmp_path)
    assert run([command, "--norm", 100]) == 0
    assert sources == [BallSource(2, 100.0)]


# a step that lists a ball's words walks it twice: once to count it against the
# element cap, holding nothing, and once to read its matrices
@pytest.mark.parametrize("argv", [
    ["enumerate", "--alphabet", 3, "--norm", 1000, "--parity", "any"],
    ["aleph", "--bound", 1e6, "--modulus", 2],
], ids=lambda v: v[0])
def test_word_steps_count_their_ball_then_read_it(tmp_path, monkeypatch, argv):
    calls = _walks(tmp_path, monkeypatch, argv)
    assert len(calls) == 2 and calls[0] == calls[1]


# build-pi walks each slice's ball twice and aleph's twice; a bound that Xi and
# Omega share is walked for one slice, which serves as both
@pytest.mark.parametrize("omega, walks", [(40, 4), (12, 6)])
def test_a_shared_slice_bound_is_walked_once(tmp_path, monkeypatch, omega, walks):
    argv = ["build-pi", "--xi-bound", 40, "--aleph-bound", 1e6, "--omega-bound", omega]
    assert len(_walks(tmp_path, monkeypatch, argv)) == walks


# every JSON-lines artifact reads as json.dumps(record, sort_keys=True) writes it,
# whether its writer formats the line by hand or not
@pytest.mark.parametrize("argv", [
    ["enumerate", "--alphabet", 3, "--norm", 300, "--parity", "any"],
    ["enumerate", "--alphabet", 1, "--norm", 1e30],
    ["trace-fiber", "--alphabet", 3, "--trace", 37],
    ["aleph", "--bound", 1e6, "--modulus", 2],
], ids=lambda v: " ".join(map(str, v[:3])))
def test_jsonl_lines_are_sorted_key_json_dumps(tmp_path, argv):
    out = tmp_path / "out.jsonl"
    assert run([*argv, "--output", out]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert lines
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"


def _line(element) -> str:
    """An element's JSON line, as ``json.dumps(record, sort_keys=True)`` writes it
    (the oracle of the byte writer, one Python-int line at a time)."""
    a, b, c, d = element.matrix.entries()
    return (f'{{"matrix": [{a}, {b}, {c}, {d}], "normSq": {a * a + b * b + c * c + d * d}, '
            f'"trace": {a + d}, "word": "{serialize_word(element.word)}"}}\n')


# enumerate writes a chunk of lines from one byte matrix, on int64 or on Python
# ints: the text must be the lines _line writes, element by element, for any
# rows (alphabet 200 has three-digit letters; alphabet 1 walks on Python ints
# past a squared norm of about 10^18)
@given(st.tuples(st.sampled_from([*range(1, 13), 200]), st.integers(1, 20_000))
       | st.just((1, 10**20)), st.sampled_from(["even", "any"]), st.data())
@settings(max_examples=80)
def test_byte_columns_equal_the_line_writer(ball, parity, data):
    alphabet, norm_sq = ball
    words = _ball_words(alphabet, norm_sq, parity)
    n = len(words.lengths)
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, min(n, lo + 3 * _CHUNK)), label="hi")
    for rows in (slice(lo, hi), slice(lo, lo)):
        chunk = words.take(rows)
        assert _text(chunk) == "".join(map(_line, _elements(chunk)))


def _int(text: str) -> int:
    """int(text) for digits past the 4,300 that int() reads, 1,000 at a time."""
    digits, value = text.lstrip("-"), 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    return -value if text.startswith("-") else value


@given(st.integers(0, 30_000), st.integers(-10**40, 10**40), st.booleans())
@settings(max_examples=60)
def test_decimal_writes_ints_of_any_length(tmp_path_factory, digits, offset, negative):
    # _write writes an int in full wherever it stands: a table cell, a
    # fraction's numerator and denominator, a JSON value, a lazily formatted
    # line; the digit limit is lifted only while it writes
    n = (10**digits + offset) * (-1 if negative else 1)
    x = Fraction(n, 2 * abs(n) + 1)  # in lowest terms, as gcd(n, 2|n| + 1) = 1
    limit, out = sys.get_int_max_str_digits(), tmp_path_factory.mktemp("write")
    _write(out / "t.csv", Table(["n", "x"], [[n, x]]))
    _write(out / "t.json", {"n": n})
    _write(out / "t.jsonl", (f"{k}\n" for k in [n]))
    assert sys.get_int_max_str_digits() == limit
    cell, fraction = (out / "t.csv").read_text().splitlines()[1].split(",")
    num, den = fraction.split("/")
    value = json.loads((out / "t.json").read_text(), parse_int=str)["n"]
    line = (out / "t.jsonl").read_text().rstrip("\n")
    for text in (cell, num, value, line):
        assert re.fullmatch(r"-?(0|[1-9][0-9]*)", text)
    assert _int(cell) == _int(num) == _int(value) == _int(line) == n
    assert _int(den) == x.denominator
    if len(cell) < 4000:
        assert cell == str(n)
    with pytest.raises(OSError):
        _write(out / "missing" / "t.csv", Table(["n"], [[n]]))
    assert sys.get_int_max_str_digits() == limit


def test_ledger_summary_past_the_str_digit_limit(tmp_path, monkeypatch):
    # 39,984 is the least cutoff at which a term of this ball's exact summary
    # passes the 4,300 digits Python's str() writes for an int
    monkeypatch.chdir(tmp_path)
    assert run(["sieve-remainders", "--alphabet", 2, "--norm", 100, "--cutoff", 39984]) == 0
    label, size, _, text = (tmp_path / "remainders.csv").read_text().splitlines()[-1].split(",")
    summary = remainder_profile(sift_values(BallSource(2, 100.0)), 39984).summary
    num, den = text.split("/")
    assert label == "summary" and max(len(num), len(den)) > 4300
    assert (_int(num), _int(den)) == (summary.numerator, summary.denominator)


# ---------------------------------------------------------------------------
# golden artifacts: one small run per subcommand, digests recorded before the
# CLI became table-driven; runs without --output pin the default artifact name

PI_BOUNDS = ["--xi-bound", 40, "--aleph-bound", 1e6, "--omega-bound", 12]
GOLDEN = [
    (["enumerate", "--alphabet", 3, "--norm", 12, "--parity", "any"], "enumerate.jsonl",
     "dbd1ba644e7f92e11d2d1bb1aa692b2190880781c25ed0d1ce58d7067a0be2cd"),
    (["enumerate", "--alphabet", 2, "--norm", 30, "--output", "x.csv"], "x.csv",
     "157b9a746faf90115576f911fd6f08999927689422ff3ed99cbaa76e82ab7e1b"),
    (["trace-fiber", "--alphabet", 3, "--trace", 37], "trace_fiber.jsonl",
     "2bda312f8abca9576dc3de3600cf9c82f3f3051992aafcdc4f71bb77cfa6caf6"),
    (["hensley-fit", "--alphabet", 2, "--norms", "10,30,100,300"], "hensley_fit.csv",
     "ebd9ef1937c0011ff18a6b6a72b935c4bcc7cca771336c9e019ebc8bb24f5618"),
    (["dimension", "--alphabets", "2,3", "--depth", 6], "dimension.csv",
     "36948993616e98e232f3dc084874ebbfaea9ee52015cc12c0b07a1500214ec5e"),
    (["densities", "--modulus", 30], "densities.csv",
     "c6fe88acb9ed5615ae453b8dacd68aa470ce6739d0dfb1f9d861ca83c5e3d77f"),
    (["expsum", "--prime", 7, "--samples", 3, "--seed", 1], "expsum.csv",
     "09901e5401db20567981de2d830baf65ca4cf8fed913c3b66fd3802baed7746c"),
    (["aleph", "--bound", 1e6, "--modulus", 2], "aleph.jsonl",
     "c5156f176fe4278b105492398799a0b7ebdf3395b6e7e1f51979fead808fc618"),
    (["aleph", "--bound", 1e6, "--modulus", 2], "aleph.summary.json",
     "f14fd77a70034b606f14379f736193dcd3e3aa2693b7d47830d154d8ca1a6892"),
    (["build-pi", *PI_BOUNDS], "pi.json",
     "55cdb4f492b80e503fabfebde18a048d7b6e62de1e5fd4d31b478ac0d7d29f96"),
    (["sieve-remainders", "--alphabet", 2, "--norm", 100, "--cutoff", 10], "remainders.csv",
     "cafa37709241f4705dc23a7570d0840223f09dbfb891d11fefa1720fe7137b62"),
    (["sieve-remainders", "--use-pi", *PI_BOUNDS, "--cutoff", 10], "remainders.csv",
     "0b08ce0024960f2e4d1c94eb0f2f5b2a9ff1425464c38a8ae73e026f18d1f4d0"),
    (["almost-prime", "--alphabet", 2, "--norm", 100, "--threshold", 5], "almost_prime.csv",
     "b36e1925bdcfacbaa096680205fd674f78f2abe919cd26b40702682878549de7"),
    (["almost-prime", "--use-pi", *PI_BOUNDS, "--threshold", 5], "almost_prime.csv",
     "e76ac3ddd05c04af2be6fb61fdaf4bc57e149bcffb5b7403b9cd4230133752b7"),
    (["almost-prime", "--use-pi", "--threshold", 5], "almost_prime.csv",  # default Pi bounds
     "d5b2026c7a07a615fb3825a2114ab7ea1b529613d89ec5ea0b958d453ff6a602"),
    (["squarefree-count", "--alphabet", 2, "--norm", 100], "squarefree_count.csv",
     "f13adf2f3e0746556b6555adde9d4b99fa2bbeec061f93ff0549b4b529117413"),
    (["discriminants", "--alphabet", 3, "--max-T", 2000], "discriminants.csv",
     "0952f97ed4e7336eb89d55d813bab5a203a0c41de1d4041785d345b4079da6aa"),
    (["class-census", "--disc", 1365, "--alphabet", 35], "class_census.json",
     "22f9ca430c1495da6cbc86dda6b4210f8bdc3c25b56d4cb71ca60cd254c213ce"),
    (["class-cycles", "--disc", 1365], "class_cycles.json",
     "05a750a004014c606b5691d2bfce80711d675075848c5d7b7c876b55efbf276e"),
    (["geodesic", "--word", "1,1,1,2,1,2"], "arcs.csv",
     "9f0fc617b4cc836c775ebbffcc59a81e757c0a450cee138fa3f5561dc0867c02"),
    (["geodesic", "--word", "1,35", "--emit", "profile.json"], "profile.json",
     "bc2da9eaf39de426461654b025e897631153275dac583c763c9de40afea96e2d"),
]


@pytest.mark.parametrize("argv, artifact, digest", GOLDEN, ids=lambda v: v[0] if isinstance(v, list) else "")
def test_golden_artifacts(tmp_path, monkeypatch, argv, artifact, digest):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text, argv, golden", [
    ("# enumerate settings\nalphabet = 3\nparity=any\n", ["enumerate", "--norm", 12], 0),
    ("use-pi = yes\nxi_bound=40\naleph-bound=1e6\nomega_bound=12\nthreshold=5\n",
     ["almost-prime"], 13),
    ("emit=profile.json\n", ["geodesic", "--word", "1,35"], 20),
])
def test_config_file_gives_golden_artifact(tmp_path, monkeypatch, text, argv, golden):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(text)
    assert run([*argv, "--config", "run.cfg"]) == 0
    _, artifact, digest = GOLDEN[golden]
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def test_fibers_and_their_classes_form_no_element(tmp_path, monkeypatch):
    def formed(words):
        raise AssertionError("an element was formed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(semigroup, "_elements", formed)
    for argv, artifact, digest in GOLDEN:
        if argv[0] in ("trace-fiber", "class-census"):
            assert run(argv) == 0
            assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest
    assert trace_multiplicity(35, 37) == 14
    assert cyclic_classes(11, 37) == [(1, 1, 1, 2, 1, 2), (1, 1, 1, 11), (5, 7)]


def test_fiber_lines_are_exact_past_int64_squares(tmp_path):
    # (1, 1)^25 has trace L_50, about 2.8e10: its walk runs on int64, but its
    # squared norm, about 7.9e20, does not fit one
    t = word_to_matrix((1, 1) * 25).trace
    fiber = trace_fiber(1, t)
    assert fiber.matrix[0].dtype == np.int64
    out = tmp_path / "fiber.jsonl"
    assert run(["trace-fiber", "--alphabet", 1, "--trace", t, "--output", out]) == 0
    assert out.read_text() == "".join(map(_line, _elements(fiber))) == _text(fiber.take(slice(1)))
    (record,) = map(json.loads, out.read_text().splitlines())
    assert record["normSq"] == sum(x * x for x in record["matrix"]) > 2**63


def test_geodesic_output_is_the_emit_destination(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["geodesic", "--word", "1,1,1,2,1,2", "--output", "mine.csv"]) == 0
    digest = hashlib.sha256((tmp_path / "mine.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[-2][2]
    assert not (tmp_path / "arcs.csv").exists()


# digests recorded while enumerate walked its ball recursively and wrote one
# json.dumps line per element; the first is the enumerate step of the
# ball_sieve benchmark, the second runs its walk on Python ints, and the third
# has digits above 127
@pytest.mark.parametrize("alphabet, norm, digest", [
    (3, 1000, "1498762ced4181dc29442dede7d08d60dcbd885321f01a0cd645ac64ad8eb258"),
    (1, 1e30, "3ca53958d1648aeb39b6104554c9a0339703fcacdfc24cb0bb11c893e924577f"),
    (200, 250, "baaad46b11ab6ce44eb73c01402789de0588ee975d0b7e57493bab3c460379a2"),
], ids=["3-1000", "1-1e30", "200-250"])
def test_golden_enumerate_at_bench_norms(tmp_path, monkeypatch, alphabet, norm, digest):
    monkeypatch.chdir(tmp_path)
    assert run(["enumerate", "--alphabet", alphabet, "--norm", norm, "--parity", "any"]) == 0
    assert hashlib.sha256((tmp_path / "enumerate.jsonl").read_bytes()).hexdigest() == digest


def test_golden_enumerate_on_python_ints_past_300_digits(tmp_path, monkeypatch):
    # digest recorded while chunks with an entry of 2^30 or more were written
    # one line at a time: 717 rows on Python ints, squared norms of up to 300 digits
    monkeypatch.chdir(tmp_path)
    assert run(["enumerate", "--alphabet", 1, "--norm", 1e150, "--parity", "any"]) == 0
    text = (tmp_path / "enumerate.jsonl").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "6e514fb65f8c4ee6dffe0df69b8d1d80c9911faf5e39251f710910ff416cc79c")
    assert text.count(b"\n") == 717


# digests recorded while trace-fiber wrote one _line per formed element; the
# first fiber has 1,068 words, more than one _CHUNK of lines, and the second is
# L_86, one word whose walk runs on Python ints
@pytest.mark.parametrize("alphabet, trace, digest", [
    (10, 4000, "b0fc9de41c5edd012efff10966ff2c40ff4d600eb6586a8faf7ec722b1dcd073"),
    (1, 939587134549734843, "1288b2b55304f0d39443ae849d3eae70d7a4bdb5740cff799d192147f6acd163"),
], ids=["10-4000", "1-L86"])
def test_golden_trace_fiber_past_a_chunk_and_on_python_ints(tmp_path, monkeypatch, alphabet,
                                                             trace, digest):
    monkeypatch.chdir(tmp_path)
    assert run(["trace-fiber", "--alphabet", alphabet, "--trace", trace]) == 0
    assert hashlib.sha256((tmp_path / "trace_fiber.jsonl").read_bytes()).hexdigest() == digest


def test_discriminants_below_the_least_trace_write_only_the_header(tmp_path, monkeypatch):
    # t = 3 needs max-T >= 9: below it no trace fits, and the census is empty
    monkeypatch.chdir(tmp_path)
    assert run(["discriminants", "--max-T", 8]) == 0
    assert (tmp_path / "discriminants.csv").read_text() == "t,discriminant,multiplicity\n"
    assert run(["discriminants", "--max-T", 9]) == 0
    assert (tmp_path / "discriminants.csv").read_text().splitlines()[1].startswith("3,5,")


def test_golden_discriminants_at_bench_max_T(tmp_path, monkeypatch):
    # digest recorded while trace_histogram added one full-length bincount per
    # walk block; the flags are the discriminants step of the fiber_forms benchmark
    monkeypatch.chdir(tmp_path)
    assert run(["discriminants", "--alphabet", 10, "--max-T", 300000]) == 0
    digest = hashlib.sha256((tmp_path / "discriminants.csv").read_bytes()).hexdigest()
    assert digest == "6cee4aa8dd6824778e45871b678b498f44ef139faa0ba749e9ed749aa4917566"


def test_golden_pi_ledger_at_cutoff_1000(tmp_path, monkeypatch):
    # digest recorded before the ledger became one pass (608 rows over 660 elements)
    monkeypatch.chdir(tmp_path)
    assert run(["sieve-remainders", "--use-pi", *PI_BOUNDS, "--cutoff", 1000]) == 0
    digest = hashlib.sha256((tmp_path / "remainders.csv").read_bytes()).hexdigest()
    assert digest == "4fe323edceda86bcec00de69deb05ca42d763db4b39225d0d289bdcc6fe5d4ab"


# digests recorded while every bisection sign of estimate came from the full
# pressure sum; the first is the dimension step of the fiber_forms benchmark
@pytest.mark.parametrize("argv, digest", [
    (["dimension", "--alphabets", "2,3", "--depth", 13],
     "3ef82b3fbad986cde158eb02357f0c8512d510969d5bba1352288f129c11afb4"),
    (["dimension", "--alphabets", "4", "--depth", 11],
     "1ab99559f8c1c41ef67d7c98f790dbf7902a33d136f079acbc125894fc9d12a9"),
], ids=["2,3-depth-13", "4-depth-11"])
def test_golden_dimension_at_bench_depths(tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert hashlib.sha256((tmp_path / "dimension.csv").read_bytes()).hexdigest() == digest


# digests recorded while class_cycles walked rho one validated Form at a time,
# walked each partner cycle again and took least rotations over all rotations;
# the two discriminants are the class-cycles steps of the fiber_forms benchmark
@pytest.mark.parametrize("disc, digest", [
    (4006209, "afac85d0d7b31e77f523bf55922ee6cd1c3f7b0a15d361a52c1d09f2d0443128"),
    (10007293, "81e8c81d1b03740b804d3bae10f5ac0fe6fe0f792d8ebefd018382d1cd24845a"),
], ids=["4006209", "10007293"])
def test_golden_class_cycles_at_bench_discriminants(tmp_path, monkeypatch, disc, digest):
    monkeypatch.chdir(tmp_path)
    assert run(["class-cycles", "--disc", disc]) == 0
    assert hashlib.sha256((tmp_path / "class_cycles.json").read_bytes()).hexdigest() == digest


# digests recorded while the SL2 character sums gathered one phase per row of
# the p^3 - p table; the first is the expsum step of the fiber_forms benchmark
@pytest.mark.parametrize("argv, digest", [
    (["--prime", 113, "--samples", 4, "--seed", 325213],
     "add699c7024cf9b177e450e5732089981f6edcb6ec31bb165cf25877fb0b1d7d"),
    (["--prime", 113, "--samples", 32, "--seed", 1],
     "10c98a5896cb613006c3adc4047ccb809f606398f46fe751acc16c8e1a9bc457"),
    (["--prime", 2, "--samples", 5, "--seed", 0],
     "37c49efb579a6249489eb4d348bd809d1f139a7f0fa516881ff289ece4ba4067"),
], ids=["113-4-325213", "113-32-1", "2-5-0"])
def test_golden_charsums_at_bench_primes(tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    assert run(["expsum", *argv]) == 0
    assert hashlib.sha256((tmp_path / "expsum.csv").read_bytes()).hexdigest() == digest


# digests recorded while densities scanned every t < q for each q and
# kloosterman summed its terms in a Python loop
@pytest.mark.parametrize("argv, artifact, digest", [
    (["densities", "--modulus", 3000], "densities.csv",
     "a08e638a04c90dc59196fd3b6b94e3b4d21b1e582aaca5e031f09ad1ed8e8eef"),
    (["expsum", "--prime", 113, "--samples", 0], "expsum.csv",
     "8bbf6d9c36e9af6b87632b68d3a28f9ab7cde20ef9b891304aadd36732791394"),
    (["expsum", "--prime", 1009, "--samples", 0], "expsum.csv",
     "5a87b43d20792d22abb812127ed329697c8ab97a661e15285c691edf3333a547"),
], ids=["densities-3000", "expsum-113", "expsum-1009"])
def test_golden_density_and_kloosterman_tables(tmp_path, monkeypatch, argv, artifact, digest):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def test_manifest_records_only_the_flags_a_run_used(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["almost-prime", "--use-pi", *PI_BOUNDS, "--threshold", 5]) == 0
    config = json.loads((tmp_path / "almost_prime.csv.manifest.json").read_text())["config"]
    assert "norm" not in config
    assert config["xi_bound"] == 40 and config["modulus"] == 2 and config["use_pi"] is True
    assert run(["sieve-remainders", "--alphabet", 2, "--norm", 100, "--cutoff", 10]) == 0
    config = json.loads((tmp_path / "remainders.csv.manifest.json").read_text())["config"]
    assert config["norm"] == 100 and config["alphabet"] == 2
    assert not {"xi_bound", "aleph_bound", "omega_bound", "modulus"} & set(config)
    assert run(["build-pi", *PI_BOUNDS]) == 0
    config = json.loads((tmp_path / "pi.json.manifest.json").read_text())["config"]
    assert {"xi_bound", "aleph_bound", "omega_bound", "modulus"} <= set(config)


def test_sift_cap_names_the_flags_that_shrink_pi(tmp_path, monkeypatch, capsys):
    import thinsieve.sieve as sieve

    monkeypatch.setattr(sieve, "MAX_SIFT_SIZE", 100)  # the Pi of PI_BOUNDS has 660 elements
    monkeypatch.chdir(tmp_path)
    assert run(["sieve-remainders", "--use-pi", *PI_BOUNDS]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--xi-bound" in err and "--aleph-bound" in err and "--omega-bound" in err
    assert "shard" not in err


# ---------------------------------------------------------------------------
# exit-code contract: bad values are config errors (exit 2), never a traceback

def _argv_id(argv: list[str]) -> str:
    """The argv as a test id, an argument past 40 characters cut to its head and length."""
    return " ".join(a if len(a) <= 40 else f"{a[:8]}...({len(a)} chars)" for a in argv)


BAD_INPUTS = [
    ["enumerate", "--norm", "inf"],
    ["enumerate", "--norm", "1e300"],
    ["enumerate", "--norm", "-5"],
    ["enumerate", "--norm", "nan"],
    ["enumerate", "--norm", "0"],
    ["enumerate", "--norm", "5", "--alphabet", "0"],
    ["enumerate", "--norm", "5", "--parity", "odd"],
    ["trace-fiber", "--alphabet", "0", "--trace", "37"],
    ["hensley-fit", "--norms=-5,100,200,300"],
    ["hensley-fit", "--norms=inf,100,200,300"],
    ["dimension", "--tol", "nan"],
    ["dimension", "--tol", "-1e-3"],
    ["dimension", "--depth", "0"],
    ["dimension", "--alphabets", "2,0"],
    ["dimension", "--alphabets", "2", "--depth", "10", "--tol", "0.5"],  # above estimate's cap
    ["dimension", "--tol", "1e-9"],  # below the bisection resolution
    ["densities", "--modulus", "0"],
    ["expsum", "--prime", "7", "--samples", "-3"],
    ["expsum", "--prime", "1", "--samples", "1"],  # no nonzero sample exists mod 1
    ["expsum", "--prime", "1001", "--samples", "1"],  # square-free, above the cap, not prime
    ["aleph", "--bound", "inf"],
    ["aleph", "--bound", "1e200"],
    ["aleph", "--bound", "1e6", "--modulus", "0"],
    ["aleph", "--bound", "1000", "--modulus", "101"],  # no finite bound: SL2 is not covered
    ["build-pi", "--xi-bound", "40", "--aleph-bound", "inf", "--omega-bound", "12"],
    ["build-pi", "--xi-bound", "1e300", "--aleph-bound", "1e6", "--omega-bound", "12"],
    # the open ball of norm < 2.5 holds no even word
    ["build-pi", "--xi-bound", "2.5", "--aleph-bound", "1e6", "--omega-bound", "12"],
    ["sieve-remainders", "--use-pi", "--omega-bound", "nan"],
    ["discriminants", "--max-T", "inf"],
    ["discriminants", "--max-T", "-5"],
    ["discriminants", "--min-multiplicity", "-5"],
    ["class-census", "--disc", "-5"],  # refused before its root is taken
    ["trace-fiber", "--trace", "2"],
    ["sieve-remainders", "--cutoff", "1"],
    ["aleph", "--bound", "2", "--modulus", "1"],  # the modulus-1 ball is empty
    ["aleph", "--bound", "1100", "--modulus", "2"],  # the pivot ball, after covering SL2
    ["aleph", "--bound", "7362", "--modulus", "2"],  # just below the least bound, 7,363
    ["squarefree-count", "--norm", "1"],
    ["sieve-remainders", "--norm", "1"],
    ["almost-prime", "--norm", "1"],
    ["enumerate", "--norm", "5", "--output", "/nonexistent/dir/e.jsonl"],
    # past the 4,300 digits int() parses: parsing keeps the limit that _write lifts
    ["class-cycles", "--disc", "9" * 5000],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=_argv_id)
def test_bad_inputs_exit_2_without_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_class_census_refuses_a_discriminant_in_its_own_words(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["class-census", "--disc", "-5"]) == 2
    err = capsys.readouterr().err
    assert "t^2 - 4 with t >= 3" in err and "isqrt" not in err


def test_internal_invariant_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    import thinsieve.cli as cli

    def broken(d):
        raise InternalInvariantError("cycles out of order")

    monkeypatch.setattr(cli, "class_cycles", broken)
    monkeypatch.chdir(tmp_path)
    assert run(["class-cycles", "--disc", 1365]) == 4
    err = capsys.readouterr().err
    assert "internal invariant violation" in err and "Traceback" not in err


def test_a_census_guard_exits_4_through_main(tmp_path, monkeypatch, capsys):
    # is_fundamental refusing the square-free t^2 - 4 of t = 3 trips
    # discriminant_census's own check, not a patched stand-in for it
    import thinsieve.sieve as sieve

    monkeypatch.setattr(sieve, "is_fundamental", lambda d: False)
    monkeypatch.chdir(tmp_path)
    assert run(["discriminants", "--max-T", 100]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "internal invariant violation: square-free t^2-4 must be fundamental: 5\n"
    assert not (tmp_path / "discriminants.csv").exists()


# main builds the parser of the named command alone; without a known command
# it builds every command's, so help and usage errors read as before
@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), ([], 2), (["no-such-command"], 2), (["--output", "x"], 2),
    (["densities", "--help"], 0), (["densities"], 2), (["densities", "--no-such-flag"], 2),
])
def test_parser_help_and_usage_exit_codes(capsys, argv, code):
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if argv == ["--help"]:
        assert all(name in out for name in COMMANDS)
    if argv[:1] == ["densities"]:
        assert "usage: thinsieve densities" in out + err


# the exit-code contract over random argument vectors: a subcommand, then each
# of its flags left out or drawn from small in-range values (none near a cap's
# slow edge), edge values and junk.  With small walk caps patched in, every run
# ends at once, in 0, 2, 3 or 4, with no traceback
_SMALL = {
    "--alphabet": ["1", "2", "3", "7"], "--norm": ["3", "30", "300", "1e4"],
    "--parity": ["even", "any"], "--trace": ["3", "37", "300"],
    "--norms": ["10,30,100", "100,300,1000,3000", "5"], "--alphabets": ["1", "2", "2,3", "5"],
    "--depth": ["1", "3", "6"], "--tol": ["1e-6", "1e-3", "0.01"],
    "--modulus": ["1", "2", "3", "30"], "--prime": ["2", "5", "113"],
    "--samples": ["0", "1", "10"], "--seed": ["0", "15"], "--bound": ["30", "7363", "1e6"],
    "--xi-bound": ["12", "40"], "--omega-bound": ["12", "40"],
    "--aleph-bound": ["30", "7363", "1e6"],
    "--cutoff": ["2", "10", "100"], "--threshold": ["2", "5", "7"],
    "--max-T": ["8", "100", "2000"], "--min-multiplicity": ["0", "1", "3"],
    "--disc": ["5", "12", "21", "1365"], "--word": ["1", "1,2", "1,35", "1,1,1,2,1,2"],
    "--emit": ["arcs.csv", "profile.json"],
}
_EDGE = ["0", "-1", "-5", "nan", "inf", "1e308", str(10**25)]
_JUNK = ["", "abc"]


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)), label="command")
    argv = [command]
    for flag in COMMANDS[command].flags:
        if flag.name == "--use-pi":  # a switch takes no value
            argv += ["--use-pi"] if draw(st.booleans(), label=flag.name) else []
            continue
        small = st.sampled_from(_SMALL[flag.name])  # drawn three times in five
        value = draw(st.one_of(small, small, small, st.none(), st.sampled_from(_EDGE + _JUNK)),
                     label=flag.name)
        argv += [] if value is None else [flag.name, value]
    return argv


def test_random_argument_vectors_keep_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_NODES", 20_000)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", 5_000)
    monkeypatch.chdir(tmp_path)  # every artifact is written here
    codes = {name: set() for name in COMMANDS}

    @given(_argv())
    @settings(max_examples=500, derandomize=True, database=None)
    def keeps_the_contract(argv):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        codes[argv[0]].add(code)

    keeps_the_contract()
    # the pools reach every subcommand's work and its refusals
    assert all({0, 2} <= seen for seen in codes.values()), codes


# a Pi that takes about 2 s to build and sift
PI_OVER_CAP = ["--alphabet", "2", "--xi-bound", "3000", "--omega-bound", "1000",
               "--aleph-bound", "1e6"]
# caps (exit 3) and the sieve flags' lower bounds (exit 2) checked before any
# work: the patched library functions (in cli unless a module is named) must never run
CAPPED_INPUTS = [
    (["densities", "--modulus", "2000000"], "modular.primes_up_to", 3),
    (["expsum", "--prime", "10007", "--samples", "1"], "kloosterman", 3),
    (["expsum", "--prime", "113", "--samples", "1001"], "kloosterman", 3),
    (["aleph", "--bound", "1e6", "--modulus", "10000000000000061"], "modular.factorize", 3),
    (["sieve-remainders", "--use-pi", *PI_OVER_CAP, "--cutoff", "2000000"], "sift_values", 3),
    (["almost-prime", "--use-pi", *PI_OVER_CAP, "--threshold", "10000000000"], "sift_values", 3),
    (["sieve-remainders", "--use-pi", *PI_OVER_CAP, "--cutoff", "1"], "sift_values", 2),
    (["almost-prime", "--use-pi", *PI_OVER_CAP, "--threshold", "1"], "sift_values", 2),
]


@pytest.mark.parametrize("argv, untouched, code", CAPPED_INPUTS,
                         ids=[f"{' '.join(argv)}-{untouched}"
                              for argv, untouched, _ in CAPPED_INPUTS])
def test_caps_exit_3_before_the_loops(tmp_path, monkeypatch, capsys, argv, untouched, code):
    def ran(*args):
        raise AssertionError(f"{untouched} ran before the check")

    target = untouched if "." in untouched else f"cli.{untouched}"
    monkeypatch.setattr(f"thinsieve.{target}", ran)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and {2: "config error", 3: "exceeds cap"}[code] in err


# over their caps, exit 3 at once: reduced_forms checks the discriminant before
# it enumerates, dimension its depth before it forms alphabet^depth, expsum
# its prime and sample count before the Kloosterman rows, the prime table its
# bound before it allocates, discriminant_census its max_T before it tests a t,
# and every walk the children a node may have before it starts
OVER_CAP_INPUTS = [
    ["class-cycles", "--disc", "1000000000000000000000"],
    ["class-cycles", "--disc", "1000000001"],
    ["dimension", "--alphabets", "1", "--depth", "1000000000"],
    ["dimension", "--alphabets", "2", "--depth", "1000000000000000000"],
    ["expsum", "--prime", "1000000000039", "--samples", "0"],
    ["expsum", "--prime", "100003", "--samples", "0"],
    ["expsum", "--prime", "113", "--samples", "100000000000"],
    ["expsum", "--prime", "1000000000000000000000000000057", "--samples", "0"],  # not tested for primality
    ["aleph", "--bound", "1e6", "--modulus", "10000000000000061"],  # not factored
    ["build-pi", "--xi-bound", "40", "--aleph-bound", "1e6", "--omega-bound", "12",
     "--modulus", "1000000000001"],
    ["almost-prime", "--norm", "10", "--threshold", "10000000000"],
    ["almost-prime", "--norm", "10", "--threshold", "100000000000000000000"],
    ["discriminants", "--max-T", "1e9"],
    ["enumerate", "--alphabet", "1000000000000000", "--norm", "1e15"],  # past 2^48 children a node
    # refused at the digit whose matrix entry passes geodesics.ENTRY_BITS_CAP
    ["geodesic", "--word", ",".join(["1"] * 100_000)],
]


# Aleph at modulus 1 is the whole even ball, 1,722,749 words held as the
# walk's arrays: about 2 s and 290 MB of VmHWM growth (21-31 s and 1.8 GB as a
# tuple of elements)
_PI_MODULUS_1 = ["build-pi", "--xi-bound", "40", "--aleph-bound", "1e6", "--omega-bound", "40",
                 "--modulus", "1"]
# a sift of the Pi of 2,454,780 elements (Xi, Aleph and Omega of 2,510, 6 and
# 163 words), whose traces come in 10 shards, 749,284 of them distinct
_PI_SIFT = ["sieve-remainders", "--use-pi", "--alphabet", "2", "--xi-bound", "4000",
            "--omega-bound", "250", "--aleph-bound", "1000000", "--cutoff", "1000"]

# dimension at the edge of its 10^7-cylinder budget, and the benchmark's
# dimension step.  Each run holds no level of lengths, so in a fresh process
# it exits 0 in 0.05-0.3 s and VmHWM grows by 1.2-2.3 MB past the import (it
# grew by 17 MB on the benchmark's step, and by 46-112 MB at the budget's edge,
# while a whole level was held)
BUDGET_EDGE_INPUTS = [
    ["dimension", "--alphabets", "2", "--depth", "23"],
    ["dimension", "--alphabets", "3", "--depth", "14"],
    ["dimension", "--alphabets", "10000000", "--depth", "1"],
    ["dimension", "--alphabets", "2,3", "--depth", "13"],
    # the longest all-ones word below geodesics.ENTRY_BITS_CAP, the slowest word
    # per bit there is: 1.2-1.7 s, and VmHWM grows by about 2 MB; its D has
    # 6,623 digits, which the profile writes in full
    ["geodesic", "--word", ",".join(["1"] * 15_844), "--emit", "profile.json"],
    # Xi and Omega of 63,004 words each, held as the walk's arrays: about
    # 0.3 s and 34 MB of VmHWM growth (1 s and 110 MB as tuples of elements)
    ["build-pi", "--alphabet", "2", "--xi-bound", "1e5", "--aleph-bound", "1e6",
     "--omega-bound", "1e5"],
    # one slice of 644,206 words of length 20, read alone from a ball of
    # 1,722,749 and serving as Xi and Omega
    ["build-pi", "--alphabet", "2", "--xi-bound", "1e6", "--aleph-bound", "1e6",
     "--omega-bound", "1e6"],
    _PI_MODULUS_1,
    # its merge of sorted runs: about 0.7-1 s and 31 MB of VmHWM growth (67-71
    # MB while each merge sorted the runs it held)
    _PI_SIFT,
]
# the sift of that Pi, of 833,810,516 elements, is over its cap once Pi is built
_SIFT_OVER_CAP = ["sieve-remainders", "--use-pi", *_PI_MODULUS_1[1:]]
# VmHWM growth allowed past the import, and seconds allowed, by row
_GROWTH_MB = {
    "build-pi --alphabet 2 --xi-bound 1e5 --aleph-bound 1e6 --omega-bound 1e5": 64.0,
    "build-pi --alphabet 2 --xi-bound 1e6 --aleph-bound 1e6 --omega-bound 1e6": 192.0,
    " ".join(_PI_MODULUS_1): 384.0,
    " ".join(_SIFT_OVER_CAP): 384.0,
    " ".join(_PI_SIFT): 48.0,
}
_SECONDS = {" ".join(_PI_MODULUS_1): 6.0, " ".join(_SIFT_OVER_CAP): 6.0}

_MEASURED_MAIN = """
import json, sys, time
from thinsieve.cli import main
def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
before, start = hwm(), time.perf_counter()
code = main(sys.argv[1:])
seconds, growth = time.perf_counter() - start, hwm() - before
print(json.dumps({"code": code, "seconds": seconds, "growth_mb": growth}))
"""


def _within_budget(tmp_path, argv: list[str], code: int) -> None:
    """Run argv in a fresh process: it exits with code within its row's seconds and growth."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _MEASURED_MAIN, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in done.stderr, done.stderr
    measured = json.loads(done.stdout.splitlines()[-1])
    row = " ".join(argv)
    assert measured["code"] == code
    assert measured["seconds"] < _SECONDS.get(row, 3.0)
    assert measured["growth_mb"] <= _GROWTH_MB.get(row, 8.0)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv", BUDGET_EDGE_INPUTS, ids=_argv_id)
def test_budget_edge_inputs_exit_0_in_bounded_memory(tmp_path, argv):
    _within_budget(tmp_path, argv, 0)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_sift_of_pi_over_its_cap_exits_3_in_bounded_memory(tmp_path):
    _within_budget(tmp_path, _SIFT_OVER_CAP, 3)


@pytest.mark.parametrize("argv", OVER_CAP_INPUTS, ids=_argv_id)
def test_over_cap_inputs_exit_3_at_once(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("exceeds cap" in err or "exceeds budget" in err)


def test_squarefree_count_exits_3_past_the_prime_table(tmp_path, monkeypatch, capsys):
    # alphabet 1 has 95 even words below norm 1e40, so no walk cap fires; the
    # square-free test of the largest odd trace, near 10^40, needs primes past
    # the table's cap, and that is decided before any trace is tested
    import thinsieve.arith as arith

    monkeypatch.setattr(arith, "_primes", [p for p in arith._primes if p <= 31])
    monkeypatch.setattr(arith, "_sieved_to", 31)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(["squarefree-count", "--alphabet", 1, "--norm", "1e40"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"exceeds cap {arith.PRIME_TABLE_CAP}" in err
    assert arith._sieved_to == 31  # the table was not sieved


@pytest.mark.parametrize("depth", (92, 2000))
def test_dimension_of_alphabet_one_past_int64(tmp_path, monkeypatch, depth):
    monkeypatch.chdir(tmp_path)
    assert run(["dimension", "--alphabets", 1, "--depth", depth]) == 0
    row = next(csv.DictReader((tmp_path / "dimension.csv").open()))
    assert row["lower"] == row["upper"] == "0.0"


def test_expsum_without_samples_has_no_cap(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["expsum", "--prime", "127", "--samples", "0"]) == 0
    assert len((tmp_path / "expsum.csv").read_text().splitlines()) == 127  # header, 126 rows


def test_huge_balls_exit_3_at_the_element_cap(tmp_path, monkeypatch):
    # a small cap stands in for the default one, which every ball walk reads at
    # call time; the word walk that meets the cap reads no row of its ball
    import thinsieve.semigroup as semigroup

    slices = [len(semigroup.build_fixed_length_ball(2, bound)) for bound in (40, 12)]
    read, handed = semigroup._words, []

    def watched(blocks, top):
        blocks = list(blocks)
        handed[-1].append(sum(len(a) for a, *_ in blocks))
        return read(blocks, top)

    monkeypatch.setattr(semigroup, "_words", watched)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", 10_000)
    monkeypatch.chdir(tmp_path)
    for argv in (["squarefree-count", "--alphabet", 3, "--norm", 1e8],
                 ["aleph", "--bound", 1e100],
                 ["build-pi", "--xi-bound", 40, "--aleph-bound", 1e100, "--omega-bound", 12]):
        handed.append([])
        assert run(argv) == 3
    # rows handed to _words, by run: build-pi reads its slices Xi and Omega
    # before aleph, and no run reads a row of aleph's ball
    assert handed == [[], [], slices]


def test_count_only_walks_exit_3_at_the_node_cap(tmp_path, monkeypatch, capsys):
    # a small node cap stands in for the default one: hensley-fit walks its
    # largest ball with no element cap (alphabet 10 on the default grid walks
    # about 10^9 nodes), so the node cap is what bounds it
    import thinsieve.semigroup as semigroup

    monkeypatch.setattr(semigroup, "DEFAULT_MAX_NODES", 10_000)
    monkeypatch.chdir(tmp_path)
    assert run(["hensley-fit", "--alphabet", 3, "--norms", "100,300,1000,3000"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "exceeds cap 10000" in err


def test_bad_config_value_is_checked_by_the_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("norm=-5\n")
    assert run(["squarefree-count", "--config", cfg, "--output", tmp_path / "s.csv"]) == 2
    assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------------------
# the README's command-line table names every subcommand and flag


def test_readme_lists_every_subcommand_and_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {line.split("`")[1]: line for line in readme.splitlines() if line.startswith("| `")}
    for name, spec in COMMANDS.items():
        assert name in rows, name
        for flag in spec.flags:
            assert flag.name in re.findall(r"--[\w-]+", rows[name]), (name, flag.name)
