import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from thinsieve.cli import COMMANDS, main
from thinsieve.errors import CapExceededError


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


def test_dimension_and_expsum(tmp_path):
    out = tmp_path / "dim.csv"
    assert run(["dimension", "--alphabets", "2", "--depth", 8, "--output", out]) == 0
    row = next(csv.DictReader(out.open()))
    assert float(row["lower"]) < 0.5313 < float(row["upper"])
    out = tmp_path / "exp.csv"
    assert run(["expsum", "--prime", 5, "--samples", 10, "--output", out]) == 0
    for row in csv.DictReader(out.open()):
        assert abs(float(row["value"])) <= float(row["bound"]) + 1e-9


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


@pytest.mark.parametrize("argv", [
    ["squarefree-count", "--alphabet", 3, "--norm", 1000],
    ["hensley-fit", "--alphabet", 3, "--norms", "100,300,1000,3000"],
], ids=lambda v: v[0])
def test_one_ball_walk_per_step(tmp_path, monkeypatch, argv):
    import thinsieve.semigroup as semigroup

    walk, calls = semigroup._frontier, []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(semigroup, "_frontier", counted)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert len(calls) == 1


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


def test_geodesic_output_is_the_emit_destination(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["geodesic", "--word", "1,1,1,2,1,2", "--output", "mine.csv"]) == 0
    digest = hashlib.sha256((tmp_path / "mine.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[-2][2]
    assert not (tmp_path / "arcs.csv").exists()


def test_golden_pi_ledger_at_cutoff_1000(tmp_path, monkeypatch):
    # digest recorded before the ledger became one pass (608 rows over 660 elements)
    monkeypatch.chdir(tmp_path)
    assert run(["sieve-remainders", "--use-pi", *PI_BOUNDS, "--cutoff", 1000]) == 0
    digest = hashlib.sha256((tmp_path / "remainders.csv").read_bytes()).hexdigest()
    assert digest == "4fe323edceda86bcec00de69deb05ca42d763db4b39225d0d289bdcc6fe5d4ab"


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
    ["densities", "--modulus", "0"],
    ["expsum", "--prime", "7", "--samples", "-3"],
    ["expsum", "--prime", "1", "--samples", "1"],  # no nonzero sample exists mod 1
    ["expsum", "--prime", "1001", "--samples", "1"],  # square-free, above the cap, not prime
    ["aleph", "--bound", "inf"],
    ["aleph", "--bound", "1e200"],
    ["aleph", "--bound", "1e6", "--modulus", "0"],
    ["build-pi", "--xi-bound", "40", "--aleph-bound", "inf", "--omega-bound", "12"],
    ["build-pi", "--xi-bound", "1e300", "--aleph-bound", "1e6", "--omega-bound", "12"],
    ["sieve-remainders", "--use-pi", "--omega-bound", "nan"],
    ["discriminants", "--max-T", "inf"],
    ["discriminants", "--max-T", "-5"],
    ["squarefree-count", "--norm", "1"],
    ["sieve-remainders", "--norm", "1"],
    ["almost-prime", "--norm", "1"],
    ["enumerate", "--norm", "5", "--output", "/nonexistent/dir/e.jsonl"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_inputs_exit_2_without_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


# caps checked before any work: the patched library functions must never run
CAPPED_INPUTS = [
    (["densities", "--modulus", "2000000"], "beta"),
    (["expsum", "--prime", "10007", "--samples", "1"], "kloosterman"),
]


@pytest.mark.parametrize("argv, untouched", CAPPED_INPUTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_caps_exit_3_before_the_loops(tmp_path, monkeypatch, capsys, argv, untouched):
    import thinsieve.cli as cli

    def ran(*args):
        raise AssertionError(f"{untouched} ran before the cap check")

    monkeypatch.setattr(cli, untouched, ran)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "exceeds cap" in err


def test_expsum_without_samples_has_no_cap(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["expsum", "--prime", "127", "--samples", "0"]) == 0
    assert len((tmp_path / "expsum.csv").read_text().splitlines()) == 127  # header, 126 rows


def test_huge_balls_exit_3_at_the_element_cap(tmp_path, monkeypatch):
    # a small cap stands in for the default one, which every ball walk reads at
    # call time; the word walk that meets the cap builds no element before it
    import thinsieve.semigroup as semigroup

    walk, built_before_the_cap = semigroup.iter_ball, []

    def watched(*args):
        built = 0
        try:
            for e in walk(*args):
                built += 1
                yield e
        except CapExceededError:
            built_before_the_cap.append(built)
            raise

    monkeypatch.setattr(semigroup, "iter_ball", watched)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", 10_000)
    monkeypatch.chdir(tmp_path)
    assert run(["squarefree-count", "--alphabet", 3, "--norm", 1e8]) == 3
    assert run(["aleph", "--bound", 1e100]) == 3
    assert run(["build-pi", "--xi-bound", 40, "--aleph-bound", 1e100, "--omega-bound", 12]) == 3
    assert built_before_the_cap == [0, 0]  # aleph's ball in each of the last two runs


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
