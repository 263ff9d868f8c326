import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimfilter.cli import main
from pimfilter.genome import FilterStats, Decision, schedule
from pimfilter.io import (
    CandidateError,
    CandidateRecord,
    FastaError,
    RunConfig,
    emit_results,
    mutate_read,
    parse_candidates,
    parse_config,
    parse_fasta,
    synth_fixture,
    synth_genome,
    write_candidates,
    write_fasta,
)
from pimfilter.oracle import edit_distance


class TestFasta:
    def test_minimal(self):
        fa = parse_fasta(io.StringIO(">x\nACGT\n"))
        assert fa.seq == "ACGT"

    def test_case_folding(self):
        assert parse_fasta(io.StringIO(">x\nacgt\n")).seq == "ACGT"

    def test_invalid_base_with_position(self):
        with pytest.raises(FastaError) as err:
            parse_fasta(io.StringIO(">x\nACNT\n"))
        assert err.value.line == 2 and err.value.col == 3

    def test_empty_file(self):
        with pytest.raises(FastaError):
            parse_fasta(io.StringIO(""))

    def test_multi_record_concatenation(self):
        fa = parse_fasta(io.StringIO(">a\nAC\nGT\n>b\nTTTT\n"))
        assert fa.seq == "ACGTTTTT"

    def test_headerless_sequence(self):
        fa = parse_fasta(io.StringIO("ACGT\n"))
        assert fa.seq == "ACGT"


def fasta_model(text):
    """Per-letter reference for parse_fasta: its sequence, or the FastaError
    it raises, with the line and column of the first bad letter."""
    parts = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line or line.startswith(">"):
            continue
        for col, ch in enumerate(line.upper(), start=1):
            if ch not in "ACGT":
                return FastaError(f"invalid base {ch!r}", lineno, col)
        parts.append(line.upper())
    return "".join(parts) if parts else FastaError("no sequence data")


def outcome(parse, text):
    try:
        return parse(io.StringIO(text))
    except (FastaError, CandidateError) as exc:
        return exc


def same_error(got, want):
    return type(got) is type(want) and (str(got), vars(got)) == (str(want), vars(want))


LINE = st.text(alphabet="ACGTacgtNnx\r", max_size=12)
EOL = st.sampled_from(("\n", "\r\n", ""))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(("", ">h ")), LINE, EOL), max_size=8))
def test_fasta_check_matches_per_letter_model(lines):
    # lowercase, N and CRLF input: one check per line gives the same
    # sequence, or the same error line and column
    text = "".join(head + body + eol for head, body, eol in lines)
    got, want = outcome(parse_fasta, text), fasta_model(text)
    if isinstance(want, str):
        assert got.seq == want
    else:
        assert same_error(got, want)


@settings(max_examples=200, deadline=None)
@given(reads=st.lists(st.tuples(st.text(alphabet="ACGTacgtN", min_size=4, max_size=4), EOL),
                      min_size=1, max_size=5))
def test_candidate_check_matches_per_letter_model(reads):
    text = "".join(f"r{i}\t{body}\t{i}{eol or chr(10)}" for i, (body, eol) in enumerate(reads))
    bad = [i for i, (body, _) in enumerate(reads) if any(ch not in "ACGT" for ch in body.upper())]
    got = outcome(lambda stream: parse_candidates(stream, read_length=4), text)
    if bad:
        assert same_error(got, CandidateError("read has a non-ACGT base", bad[0] + 1))
    else:
        assert [r.seq for r in got] == [body.upper() for body, _ in reads]


class TestCandidates:
    def test_single_record(self):
        text = "r1\t" + "A" * 100 + "\t0\n"
        recs = parse_candidates(io.StringIO(text))
        assert recs[0] == CandidateRecord("r1", "A" * 100, 0)

    def test_wrong_read_length(self):
        with pytest.raises(CandidateError, match="length"):
            parse_candidates(io.StringIO("r1\tAAAA\t0\n"))

    def test_comments_and_blanks_skipped(self):
        text = "# comment\n\nr1\t" + "C" * 100 + "\t7\n"
        assert len(parse_candidates(io.StringIO(text))) == 1

    def test_position_overflow(self):
        text = "r1\t" + "A" * 100 + f"\t{2**32}\n"
        with pytest.raises(CandidateError, match="32 bits"):
            parse_candidates(io.StringIO(text))

    @pytest.mark.parametrize("position", ["x", "1.5", "", "0x10"])
    def test_malformed_position(self, position):
        text = "# header\nr1\t" + "A" * 100 + f"\t{position}\n"
        with pytest.raises(CandidateError, match=r"^malformed position \(line 2\)$"):
            parse_candidates(io.StringIO(text))

    def test_malformed_line(self):
        with pytest.raises(CandidateError, match="line 1"):
            parse_candidates(io.StringIO("just-one-field\n"))

    def test_invalid_base(self):
        with pytest.raises(CandidateError, match="non-ACGT"):
            parse_candidates(io.StringIO("r1\t" + "N" * 100 + "\t0\n"))


class TestEmit:
    def stats(self, **kv):
        s = FilterStats()
        for k, v in kv.items():
            setattr(s, k, v)
        return s

    def test_empty_run(self):
        out = io.StringIO()
        emit_results([], self.stats(), out)
        text = out.getvalue()
        assert text.startswith("read_id\tposition\tverdict\n")
        assert "# processed 0" in text

    def test_single_discard_row(self):
        out = io.StringIO()
        stats = self.stats(queued=1, processed=1, discarded=1, discard_rate=1.0,
                           bytes_transferred=13)
        emit_results([Decision("r1", 6400, "discard")], stats, out)
        assert "r1\t6400\tdiscard\n" in out.getvalue()

    def test_rate_definition(self):
        # discard rate is over processed locations, excluding passthrough
        stats = self.stats(queued=4, processed=2, passthrough=2, discarded=1,
                           kept=1, discard_rate=0.5, passthrough_rate=0.5)
        out = io.StringIO()
        emit_results([], stats, out)
        assert "# discard_rate 0.500000" in out.getvalue()


class TestRoundTrip:
    def test_candidates_round_trip(self):
        fixture = synth_fixture(genome_len=13_000, reads=5, decoys_per_read=2, seed=3)
        buf = io.StringIO()
        write_candidates(fixture.candidates, buf)
        buf.seek(0)
        again = parse_candidates(buf)
        assert again == fixture.candidates

    def test_fasta_round_trip(self):
        rng = random.Random(0)
        seq = synth_genome(500, rng)
        buf = io.StringIO()
        write_fasta(seq, buf, name="g")
        buf.seek(0)
        assert parse_fasta(buf).seq == seq


class TestSynth:
    def test_seeded_determinism(self):
        a = synth_fixture(genome_len=5_000, reads=4, max_edits=3, seed=42)
        b = synth_fixture(genome_len=5_000, reads=4, max_edits=3, seed=42)
        assert a.genome == b.genome
        assert a.candidates == b.candidates

    def test_seeds_differ(self):
        a = synth_fixture(genome_len=5_000, reads=4, seed=1)
        b = synth_fixture(genome_len=5_000, reads=4, seed=2)
        assert a.genome != b.genome

    @pytest.mark.parametrize("kwargs,name", [
        ({"genome_len": 50}, "genome_len"),
        ({"genome_len": 63, "read_length": 64}, "genome_len"),
        ({"read_length": 0}, "read_length"),
        ({"read_length": 101}, "read_length"),
        ({"reads": -1}, "reads"),
        ({"decoys_per_read": -2}, "decoys_per_read"),
        ({"max_edits": -1}, "max_edits"),
    ])
    def test_bad_fixture_arguments_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            synth_fixture(**{"genome_len": 1_000, **kwargs})

    def test_edge_fixture_arguments_accepted(self):
        fx = synth_fixture(genome_len=100, reads=2, decoys_per_read=0)
        assert [c.position for c in fx.candidates] == [0, 0]
        assert synth_fixture(genome_len=1, read_length=1, reads=0).candidates == []

    def test_mutate_read_certified_distance(self):
        rng = random.Random(9)
        for _ in range(100):
            window = synth_genome(100, rng)
            k = rng.randint(0, 6)
            read = mutate_read(window, k, rng)
            assert len(read) == 100
            assert edit_distance(read, window) <= k

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(eth=-1)
        with pytest.raises(ValueError):
            RunConfig(read_length=101)
        # values the run would reject late, or ignore
        with pytest.raises(ValueError, match="active_limit"):
            RunConfig(active_limit=0)
        with pytest.raises(ValueError, match="eth"):
            RunConfig(eth=101)
        with pytest.raises(ValueError, match="eth"):
            RunConfig(eth=65, read_length=64)
        assert RunConfig(eth=64, read_length=64, active_limit=1).active_limit == 1

    def test_parse_config_file(self):
        text = "eth=4\niter_factor=none  # uncapped\nactive_limit=3\nstrict=false\n"
        cfg = parse_config(io.StringIO(text))
        assert (cfg.eth, cfg.iter_factor, cfg.active_limit, cfg.strict) == (4, None, 3, False)
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(io.StringIO("bogus=1\n"))
        with pytest.raises(ValueError, match="key=value"):
            parse_config(io.StringIO("just words\n"))

    def test_iter_factor_zero_disables_cap(self):
        uncapped = schedule([3, 1], iter_factor=None)
        assert schedule([3, 1], RunConfig(iter_factor=0).iter_factor) == uncapped
        from_file = parse_config(io.StringIO("iter_factor=0\n")).iter_factor
        assert schedule([3, 1], from_file) == uncapped

    @pytest.mark.parametrize("value", ["-1", "-0.5", "inf", "nan"])
    def test_bad_iter_factor_rejected(self, value):
        with pytest.raises(ValueError, match="iter_factor"):
            RunConfig(iter_factor=float(value))
        with pytest.raises(ValueError, match="iter_factor"):
            parse_config(io.StringIO(f"iter_factor={value}\n"))

    @pytest.mark.parametrize("line,value", [
        ("strict=OFF", False), ("strict=Yes", True), ("strict=0", False),
        ("verify_oracle=on", True), ("verify_oracle=No", False),
        ("iter_factor=", None), ("active_limit=none", None), ("trace=None", None),
    ])
    def test_accepted_config_values(self, line, value):
        key = line.partition("=")[0]
        assert getattr(parse_config(io.StringIO(line + "\n")), key) == value

    @pytest.mark.parametrize("line", [
        "strict=ture", "verify_oracle=yes please", "strict=none", "strict=",
        "eth=none", "read_length=", "eth=abc", "eth=-1", "read_length=101",
        "eth=101", "active_limit=0", "active_limit=-1",
    ])
    def test_wrong_config_values_rejected(self, line):
        with pytest.raises(ValueError, match="^config line 2: "):
            parse_config(io.StringIO("# run\n" + line + "\n"))

    @pytest.mark.parametrize("line", ["rows=64", "cols=128", "seed=3"])
    def test_unused_keys_rejected(self, line):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(io.StringIO(line + "\n"))


class TestCli:
    def test_synth_filter_pipeline(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), "--genome-len", "13000",
                     "--reads", "5", "--decoys", "1", "--edits", "2", "--seed", "4"]) == 0
        out = tmp_path / "results.tsv"
        code = main(["filter", "--genome", str(tmp_path / "genome.fa"),
                     "--candidates", str(tmp_path / "candidates.tsv"),
                     "--eth", "4", "--out", str(out), "--verify-oracle"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("read_id\tposition\tverdict\n")
        assert "# oracle_mismatches 0" in text

    @pytest.mark.parametrize("flag,value,name", [
        ("--genome-len", "50", "genome_len"),
        ("--edits", "-1", "max_edits"),
        ("--read-length", "0", "read_length"),
        ("--read-length", "101", "read_length"),
        ("--reads", "-1", "reads"),
        ("--decoys", "-2", "decoys_per_read"),
    ])
    def test_synth_bad_argument_exits_1(self, tmp_path, capsys, flag, value, name):
        out_dir = tmp_path / "fx"
        assert main(["synth", "--out-dir", str(out_dir), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert not out_dir.exists()

    # sha256 of the results file and of the trace. Any change to the op
    # stream, the cycle counts or the decisions shows here; regenerate
    # only for a deliberate change, and record the old and new values.
    PINNED_FILTER_OUTPUT = {
        100: ("8be996560f950fe284b45f3878012de71706935762ac2e5b707fb6d6084a15da",
              "ab9c84ae0de4a3c95dfeb0adfe99523bf0da42b611deceef64776a9a062c085b"),
        64: ("6be03c25871977e28be87dcbb5db16ee8006d8246c5da5477a0a610731d8ebed",
             "6902d4818cddfaa6a204de62117b84679778e73cd99dadfaeba380dead6d1d44"),
    }

    @pytest.mark.parametrize("mode", [[], ["--permissive"]], ids=["strict", "permissive"])
    @pytest.mark.parametrize("read_length", [100, 64])
    def test_filter_output_pinned(self, tmp_path, read_length, mode):
        assert main(["synth", "--out-dir", str(tmp_path), "--genome-len", "13000",
                     "--reads", "4", "--seed", "1",
                     "--read-length", str(read_length)]) == 0
        results, trace = tmp_path / "r.tsv", tmp_path / "trace.txt"
        assert main(["filter", "--genome", str(tmp_path / "genome.fa"),
                     "--candidates", str(tmp_path / "candidates.tsv"),
                     "--eth", "3", "--read-length", str(read_length),
                     "--verify-oracle", "--trace", str(trace),
                     "--out", str(results)] + mode) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (results, trace))
        assert digests == self.PINNED_FILTER_OUTPUT[read_length]

    def test_filter_trace(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--genome-len", "6600",
              "--reads", "1", "--decoys", "0", "--seed", "5"])
        trace = tmp_path / "trace.txt"
        assert main(["filter", "--genome", str(tmp_path / "genome.fa"),
                     "--candidates", str(tmp_path / "candidates.tsv"),
                     "--eth", "2", "--out", str(tmp_path / "r.tsv"),
                     "--trace", str(trace)]) == 0
        first = trace.read_text().splitlines()[0]
        kind, index, rest = first.split(" ", 2)
        assert kind in ("compute", "init") and index.isdigit()

    def test_filter_with_config_file(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--genome-len", "6600",
              "--reads", "2", "--decoys", "0", "--seed", "6"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eth=3\nverify_oracle=true\n")
        out = tmp_path / "r.tsv"
        assert main(["filter", "--genome", str(tmp_path / "genome.fa"),
                     "--candidates", str(tmp_path / "candidates.tsv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert "# oracle_mismatches 0" in out.read_text()

    def test_iter_factor_zero_same_from_flag_and_file(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--genome-len", "6600",
              "--reads", "4", "--decoys", "2", "--seed", "7"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eth=2\niter_factor=0\n")
        args = ["filter", "--genome", str(tmp_path / "genome.fa"),
                "--candidates", str(tmp_path / "candidates.tsv")]
        flag, file = tmp_path / "flag.tsv", tmp_path / "file.tsv"
        assert main(args + ["--eth", "2", "--iter-factor", "0", "--out", str(flag)]) == 0
        assert main(args + ["--config", str(cfg), "--out", str(file)]) == 0
        assert flag.read_text() == file.read_text()
        assert "# passthrough 0\n" in flag.read_text()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_iter_factor_exits_1(self, tmp_path, capsys, source):
        (tmp_path / "genome.fa").write_text(">g\n" + "ACGT" * 50 + "\n")
        # no candidates, so a run that skips the check returns at once
        (tmp_path / "candidates.tsv").write_text("# read_id\tread_seq\tposition\n")
        args = ["filter", "--genome", str(tmp_path / "genome.fa"),
                "--candidates", str(tmp_path / "candidates.tsv"),
                "--out", str(tmp_path / "r.tsv")]
        if source == "flag":
            args += ["--eth", "2", "--iter-factor", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("eth=2\niter_factor=-1\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 1
        assert "iter_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["strict=ture", "eth=none", "read_length=",
                                      "active_limit=0", "eth=101"])
    def test_wrong_config_value_exits_1(self, tmp_path, capsys, line):
        (tmp_path / "genome.fa").write_text(">g\n" + "ACGT" * 50 + "\n")
        (tmp_path / "candidates.tsv").write_text("# read_id\tread_seq\tposition\n")
        (tmp_path / "run.cfg").write_text(line + "\n")
        assert main(["filter", "--genome", str(tmp_path / "genome.fa"),
                     "--candidates", str(tmp_path / "candidates.tsv"),
                     "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "r.tsv")]) == 1
        assert capsys.readouterr().err.startswith("error: config line 1: ")

    @pytest.mark.parametrize("flags,match", [
        (["--eth", "2", "--active-limit", "0"], "active_limit"),
        (["--eth", "500"], "eth"),
        (["--eth", "70", "--read-length", "64"], "eth"),
        ([], "error: --eth or --config is required"),
    ])
    def test_wrong_filter_flag_exits_1_before_reading_input(self, tmp_path, capsys, flags, match):
        # the input files do not exist: the flags must fail first
        assert main(["filter", "--genome", str(tmp_path / "nope.fa"),
                     "--candidates", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "r.tsv")] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err and "nope" not in err

    def test_validate_reports_zero_mismatches(self, capsys):
        assert main(["validate", "--trials", "40", "--seed", "1"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,name", [
        (["--trials", "-3"], "trials"),
        (["--trials", "0"], "trials"),
        (["--trials", "5", "--eths", "5,200"], "eths"),
        (["--trials", "5", "--eths", "-1"], "eths"),
    ])
    def test_validate_bad_argument_exits_1_before_any_trial(self, monkeypatch, capsys, flags, name):
        monkeypatch.setattr("pimfilter.genome.run_filter",
                            lambda *a, **k: pytest.fail("a trial ran"))
        assert main(["validate"] + flags) == 1
        out = capsys.readouterr()
        assert out.err.startswith(f"error: {name} must be ") and out.out == ""

    def test_model_table_numbers(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "13.8" in out and "59.8" in out and "73.6" in out

    def test_model_power_budget(self, capsys):
        assert main(["model", "--power-budget", "100"]) == 0
        out = capsys.readouterr().out
        assert "100000" in out

    def test_model_curve_file(self, tmp_path, capsys):
        curve = tmp_path / "curve.tsv"
        assert main(["model", "--mode", "figure", "--curve", str(curve)]) == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "arrays\tpim_seconds\tcpu_seconds"
        assert len(lines) > 100

    @pytest.mark.parametrize("value,flag", [
        (value, flag) for value in ("0", "-1")
        for flag in ("--arrays", "--cycles-per-iteration", "--power-budget")
    ] + [
        (value, flag) for value in ("nan", "inf")
        for flag in ("--cycles-per-iteration", "--power-budget")
    ])
    def test_model_non_positive_value_exits_1(self, capsys, flag, value):
        assert main(["model", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["--cycles-per-iteration", "1e308"],
        ["--arrays", "1", "--cycles-per-iteration", "1e303"],
        ["--mode", "figure", "--cycles-per-iteration", "1e300"],
        ["--cycles-per-iteration", "1e300"],  # only the curve's one-array row overflows
    ])
    def test_model_overflowing_latency_exits_1(self, tmp_path, capsys, args):
        # finite inputs whose latency overflows the float range
        curve = tmp_path / "curve.tsv"
        assert main(["model", *args, "--curve", str(curve)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not curve.exists()

    def test_gates_selftest(self, capsys):
        # declared: the paper's stated cost; popcount: the tree's own count
        assert main(["gates"]) == 0
        assert capsys.readouterr().out == (
            "NOT (4-bit group)          declared    1  measured    1  ok\n"
            "COPY (4-bit group)         declared    2  measured    2  ok\n"
            "half adder                 declared    5  measured    5  ok\n"
            "4-bit adder                declared   37  measured   37  ok\n"
            "4-bit subtractor           declared   37  measured   37  ok\n"
            "8-bit adder                declared   73  measured   73  ok\n"
            "8-bit subtractor           declared   73  measured   73  ok\n"
            "8-bit mux                  declared   32  measured   32  ok\n"
            "popcount (100 bits)        declared  380  measured  380  ok\n"
            "all gate checks passed\n"
        )

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["filter", "--genome", str(tmp_path / "nope.fa"),
                     "--candidates", str(tmp_path / "nope.tsv"), "--eth", "0"])
        assert code == 1
        assert "error" in capsys.readouterr().err
