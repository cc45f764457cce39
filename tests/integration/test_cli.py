"""Integration tests for the ``sxnm`` command-line interface."""

import re

import pytest

from repro.cli import main
from repro.config import dump_config
from repro.datagen import generate_dirty_movies
from repro.experiments import dataset1_config
from repro.xmlmodel import parse_file, write_file


@pytest.fixture()
def workspace(tmp_path):
    config_path = tmp_path / "config.xml"
    data_path = tmp_path / "data.xml"
    config_path.write_text(dump_config(dataset1_config(window=8)),
                           encoding="utf-8")
    document = generate_dirty_movies(30, seed=2, profile="effectiveness")
    write_file(document, str(data_path))
    return tmp_path, str(config_path), str(data_path)


class TestDetect:
    def test_prints_clusters(self, workspace, capsys):
        _, config, data = workspace
        assert main(["detect", "-c", config, data]) == 0
        output = capsys.readouterr().out
        assert "candidate movie" in output
        assert "duplicate cluster" in output
        assert "KG" in output and "SW" in output

    def test_timings_line_reports_parse_unless_streaming(self, workspace, capsys):
        _, config, data = workspace
        assert main(["detect", "-c", config, data]) == 0
        timings = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"PARSE \d+\.\d{3}s  KG \d+\.\d{3}s  "
                            r"SW \d+\.\d{3}s  TC \d+\.\d{3}s", timings)
        assert main(["detect", "-c", config, data, "--stream"]) == 0
        timings = capsys.readouterr().out.splitlines()[-1]
        assert timings.startswith("KG ") and "PARSE" not in timings

    def test_report_file(self, workspace):
        tmp_path, config, data = workspace
        report = tmp_path / "report.txt"
        assert main(["detect", "-c", config, data,
                     "--report", str(report)]) == 0
        assert "candidate movie" in report.read_text()

    def test_window_override(self, workspace, capsys):
        _, config, data = workspace
        assert main(["detect", "-c", config, data, "-w", "2"]) == 0
        narrow = capsys.readouterr().out
        assert main(["detect", "-c", config, data, "-w", "20"]) == 0
        wide = capsys.readouterr().out
        assert narrow != wide

    def test_phi_cache_dir_warm_run_same_clusters(self, workspace, capsys):
        tmp_path, config, data = workspace
        cache = str(tmp_path / "phicache")
        assert main(["detect", "-c", config, data]) == 0
        baseline = capsys.readouterr().out

        assert main(["detect", "-c", config, data, "--progress",
                     "--phi-cache-dir", cache]) == 0
        cold, cold_progress = capsys.readouterr()
        assert "phi cache: loaded 0 entries" in cold_progress
        assert "phi cache: flushed" in cold_progress

        assert main(["detect", "-c", config, data, "--progress",
                     "--phi-cache-dir", cache]) == 0
        warm, warm_progress = capsys.readouterr()
        assert "phi cache: loaded" in warm_progress
        assert "phi cache: loaded 0 entries" not in warm_progress
        assert "phi cache: flushed 0 new entries" in warm_progress

        def clusters(text):
            return [line for line in text.splitlines()
                    if line.startswith(("candidate", "  eids"))]

        assert clusters(cold) == clusters(baseline)
        assert clusters(warm) == clusters(baseline)

    def test_stream_flag_same_clusters(self, workspace, capsys):
        tmp_path, config, data = workspace
        assert main(["detect", "-c", config, data]) == 0
        baseline = capsys.readouterr().out
        spill_dir = tmp_path / "spill"
        assert main(["detect", "-c", config, data, "--stream",
                     "--spill-dir", str(spill_dir),
                     "--spill-max-rows", "5"]) == 0
        streamed = capsys.readouterr().out

        def clusters(text):
            return [line for line in text.splitlines()
                    if line.startswith(("candidate", "  eids"))]

        assert clusters(streamed) == clusters(baseline)
        # Run files really formed on disk under the requested directory.
        assert any(entry.name.endswith(".xrun")
                   for entry in spill_dir.iterdir())


class TestIndex:
    def clusters(self, text):
        return [line for line in text.splitlines()
                if line.startswith(("candidate", "  eids"))]

    def test_detect_with_index_then_resume_same_clusters(self, workspace,
                                                         capsys):
        tmp_path, config, data = workspace
        index_dir = str(tmp_path / "index")
        assert main(["detect", "-c", config, data]) == 0
        baseline = capsys.readouterr().out

        assert main(["detect", "-c", config, data, "--progress",
                     "--index", index_dir]) == 0
        indexed, progress = capsys.readouterr()
        assert "index: opened" in progress
        assert "index: committed candidate" in progress

        assert main(["detect", "-c", config, data, "--progress",
                     "--index", index_dir, "--resume"]) == 0
        resumed, resumed_progress = capsys.readouterr()
        assert "candidate(s) resumable" in resumed_progress
        assert self.clusters(indexed) == self.clusters(baseline)
        assert self.clusters(resumed) == self.clusters(baseline)

    def test_resume_refuses_mismatched_corpus(self, workspace, capsys):
        tmp_path, config, data = workspace
        index_dir = str(tmp_path / "index")
        assert main(["detect", "-c", config, data,
                     "--index", index_dir]) == 0
        capsys.readouterr()
        other = tmp_path / "other.xml"
        write_file(generate_dirty_movies(12, seed=9), str(other))
        assert main(["detect", "-c", config, str(other),
                     "--index", index_dir, "--resume"]) == 1
        err = capsys.readouterr().err
        assert "refusing to resume" in err

    def test_index_init_status_compact(self, workspace, capsys):
        tmp_path, config, data = workspace
        index_dir = str(tmp_path / "index")
        assert main(["index", "init", index_dir, "-c", config]) == 0
        assert "initialized index" in capsys.readouterr().out

        assert main(["detect", "-c", config, data,
                     "--index", index_dir]) == 0
        capsys.readouterr()

        assert main(["index", "status", index_dir]) == 0
        status = capsys.readouterr().out
        assert "config fingerprint:" in status
        assert "completed candidates: movie" in status
        assert "gk: segment-" in status

        assert main(["index", "compact", index_dir]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["index", "status", index_dir]) == 0
        assert "(0 orphaned)" in capsys.readouterr().out


class TestDedup:
    def test_writes_smaller_document(self, workspace, capsys):
        tmp_path, config, data = workspace
        out = tmp_path / "clean.xml"
        assert main(["dedup", "-c", config, data, "-o", str(out)]) == 0
        assert "elements removed" in capsys.readouterr().out
        original = parse_file(data)
        cleaned = parse_file(str(out))
        assert cleaned.element_count() < original.element_count()


class TestEvaluate:
    def test_scores_against_oids(self, workspace, capsys):
        _, config, data = workspace
        assert main(["evaluate", "-c", config, data]) == 0
        output = capsys.readouterr().out
        assert "precision" in output and "recall" in output
        assert "movie" in output

    def test_single_candidate(self, workspace, capsys):
        _, config, data = workspace
        assert main(["evaluate", "-c", config, data,
                     "--candidate", "movie"]) == 0
        assert "movie" in capsys.readouterr().out


class TestGenerate:
    def test_movies(self, tmp_path, capsys):
        out = tmp_path / "movies.xml"
        assert main(["generate", "movies", "-n", "10", "-o", str(out),
                     "--seed", "4"]) == 0
        document = parse_file(str(out))
        assert document.root.tag == "movie_database"

    def test_clean_movies(self, tmp_path):
        out = tmp_path / "clean.xml"
        assert main(["generate", "movies", "-n", "10", "-o", str(out),
                     "--profile", "clean"]) == 0
        document = parse_file(str(out))
        movies = document.root.find("movies").find_all("movie")
        assert len(movies) == 10

    def test_cds(self, tmp_path):
        out = tmp_path / "cds.xml"
        assert main(["generate", "cds", "-n", "15", "-o", str(out)]) == 0
        document = parse_file(str(out))
        assert document.root.tag == "freedb"
        assert len(document.root.find_all("disc")) == 30  # + duplicates


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        _, config, _ = workspace
        assert main(["detect", "-c", config, "/nope/missing.xml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<sxnm-config></sxnm-config>")
        data = tmp_path / "d.xml"
        data.write_text("<db/>")
        assert main(["detect", "-c", str(bad), str(data)]) == 1
        assert "error" in capsys.readouterr().err


class TestExperiments:
    def test_figure_6a(self, capsys):
        assert main(["experiments", "6a", "--scale", "40"]) == 0
        output = capsys.readouterr().out
        assert "Fig 6a" in output
        assert "threshold" in output

    def test_figure_4a(self, capsys):
        assert main(["experiments", "4a", "--scale", "30"]) == 0
        output = capsys.readouterr().out
        assert "recall" in output
        assert "MP" in output

    def test_figure_5(self, capsys):
        assert main(["experiments", "5", "--scale", "40"]) == 0
        output = capsys.readouterr().out
        assert "KG s" in output
        assert "many" in output

    def test_unknown_figure_rejected(self):
        import pytest
        with pytest.raises(SystemExit):
            main(["experiments", "9z"])


class TestExplain:
    def test_explains_duplicate_pair(self, workspace, capsys):
        _, config, data = workspace
        # Find a detected pair first.
        assert main(["detect", "-c", config, data]) == 0
        output = capsys.readouterr().out
        import re
        match = re.search(r"eids \[(\d+), (\d+)\]", output)
        assert match, "no duplicate pair detected"
        pair = f"{match.group(1)},{match.group(2)}"
        assert main(["explain", "-c", config, data,
                     "--candidate", "movie", "--pair", pair]) == 0
        explanation = capsys.readouterr().out
        assert "DUPLICATE" in explanation
        assert "title/text()" in explanation

    def test_bad_pair_format(self, workspace, capsys):
        _, config, data = workspace
        assert main(["explain", "-c", config, data,
                     "--candidate", "movie", "--pair", "abc"]) == 1
        assert "two integers" in capsys.readouterr().err

    def test_unknown_eid(self, workspace, capsys):
        _, config, data = workspace
        assert main(["explain", "-c", config, data,
                     "--candidate", "movie", "--pair", "99999,99998"]) == 1
        assert "error" in capsys.readouterr().err
