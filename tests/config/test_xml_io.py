"""Unit tests for configuration XML round-trips."""

import pytest

from repro.config import (CandidateSpec, SxnmConfig, dump_config, load_config,
                          load_config_file, save_config_file)
from repro.errors import ConfigError

CONFIG_XML = """
<sxnm-config window="5" odThreshold="0.65" descThreshold="0.3">
  <candidate name="movie" xpath="movie_database/movies/movie">
    <paths>
      <path id="1" relPath="title/text()"/>
      <path id="2" relPath="@ID"/>
      <path id="3" relPath="@year"/>
    </paths>
    <objectDescription>
      <od pid="1" relevance="0.8"/>
      <od pid="3" relevance="0.2" phi="year"/>
    </objectDescription>
    <key name="Key 1">
      <part pid="1" order="1" pattern="K1,K2"/>
      <part pid="3" order="2" pattern="D3,D4"/>
    </key>
    <key name="Key 2">
      <part pid="2" order="1" pattern="D1"/>
      <part pid="1" order="2" pattern="C1,C2"/>
    </key>
    <detection window="4" odThreshold="0.7" useDescendants="false"/>
  </candidate>
</sxnm-config>
"""


class TestLoadConfig:
    def test_paper_table1_config(self):
        config = load_config(CONFIG_XML)
        assert config.window_size == 5
        assert config.od_threshold == 0.65
        spec = config.candidate("movie")
        assert spec.xpath == "movie_database/movies/movie"
        assert len(spec.paths) == 3
        assert [od.phi for od in spec.ods] == ["edit", "year"]
        assert spec.pass_count == 2
        assert spec.key_names == ["Key 1", "Key 2"]
        assert spec.window_size == 4
        assert spec.od_threshold == 0.7
        assert spec.use_descendants is False

    def test_loaded_keys_generate_paper_values(self):
        from repro.xmlmodel import element
        config = load_config(CONFIG_XML)
        movie = element("movie", {"year": "1999", "ID": "m5"},
                        element("title", text="Matrix"))
        keys = [d.generate(movie) for d in config.candidate("movie").key_definitions()]
        assert keys == ["MT99", "5MA"]

    def test_wrong_root(self):
        with pytest.raises(ConfigError, match="sxnm-config"):
            load_config("<config/>")

    def test_missing_candidate_name(self):
        bad = "<sxnm-config><candidate xpath='db/x'/></sxnm-config>"
        with pytest.raises(ConfigError, match="name"):
            load_config(bad)

    def test_bad_number(self):
        bad = "<sxnm-config window='lots'><candidate name='x' xpath='db/x'/></sxnm-config>"
        with pytest.raises(ConfigError, match="not an integer"):
            load_config(bad)

    def test_bad_boolean(self):
        bad = CONFIG_XML.replace('useDescendants="false"', 'useDescendants="maybe"')
        with pytest.raises(ConfigError, match="not a boolean"):
            load_config(bad)

    def test_empty_key_rejected(self):
        bad = """<sxnm-config><candidate name="x" xpath="db/x">
                 <paths><path id="1" relPath="text()"/></paths>
                 <objectDescription><od pid="1" relevance="1.0"/></objectDescription>
                 <key name="K"/></candidate></sxnm-config>"""
        with pytest.raises(ConfigError, match="no <part>"):
            load_config(bad)

    def test_invalid_config_fails_validation(self):
        # OD relevancies summing to 0.5 must be rejected at load time.
        bad = CONFIG_XML.replace('relevance="0.8"', 'relevance="0.3"')
        with pytest.raises(ConfigError, match="sum to"):
            load_config(bad)


class TestRoundTrip:
    def test_dump_and_reload(self):
        original = load_config(CONFIG_XML)
        reloaded = load_config(dump_config(original))
        spec_a = original.candidate("movie")
        spec_b = reloaded.candidate("movie")
        assert spec_a.paths == spec_b.paths
        assert spec_a.ods == spec_b.ods
        assert spec_a.keys == spec_b.keys
        assert spec_a.key_names == spec_b.key_names
        assert spec_a.window_size == spec_b.window_size
        assert spec_a.use_descendants == spec_b.use_descendants
        assert original.window_size == reloaded.window_size
        assert original.od_threshold == reloaded.od_threshold

    def test_file_round_trip(self, tmp_path):
        config = load_config(CONFIG_XML)
        path = str(tmp_path / "config.xml")
        save_config_file(config, path)
        again = load_config_file(path)
        assert again.candidate("movie").pass_count == 2

    def test_comparator_knobs_round_trip(self):
        xml = CONFIG_XML.replace(
            'odThreshold="0.65"',
            'odThreshold="0.65" useFilters="true" phiCacheSize="512"')
        config = load_config(xml)
        assert config.use_filters is True
        assert config.phi_cache_size == 512
        reloaded = load_config(dump_config(config))
        assert reloaded.use_filters is True
        assert reloaded.phi_cache_size == 512

    def test_comparator_knob_defaults(self):
        from repro.config.model import DEFAULT_PHI_CACHE_SIZE
        config = load_config(CONFIG_XML)
        assert config.use_filters is False
        assert config.phi_cache_size == DEFAULT_PHI_CACHE_SIZE
        assert config.phi_cache_dir is None
        assert config.phi_cache_persist is True

    def test_phi_cache_dir_round_trip(self):
        xml = CONFIG_XML.replace(
            'odThreshold="0.65"',
            'odThreshold="0.65" phiCacheDir="/tmp/phicache" '
            'phiCachePersist="false"')
        config = load_config(xml)
        assert config.phi_cache_dir == "/tmp/phicache"
        assert config.phi_cache_persist is False
        reloaded = load_config(dump_config(config))
        assert reloaded.phi_cache_dir == "/tmp/phicache"
        assert reloaded.phi_cache_persist is False

    def test_phi_cache_dir_omitted_when_unset(self):
        # No phiCacheDir attribute appears in a dump unless configured,
        # and phiCachePersist only materializes when disabled.
        text = dump_config(load_config(CONFIG_XML))
        assert "phiCacheDir" not in text
        assert "phiCachePersist" not in text

    def test_index_dir_round_trip(self):
        xml = CONFIG_XML.replace(
            'odThreshold="0.65"',
            'odThreshold="0.65" indexDir="/tmp/sxnm-index" '
            'indexPersist="false"')
        config = load_config(xml)
        assert config.index_dir == "/tmp/sxnm-index"
        assert config.index_persist is False
        reloaded = load_config(dump_config(config))
        assert reloaded.index_dir == "/tmp/sxnm-index"
        assert reloaded.index_persist is False

    def test_index_dir_defaults_and_omission(self):
        config = load_config(CONFIG_XML)
        assert config.index_dir is None
        assert config.index_persist is True
        text = dump_config(config)
        assert "indexDir" not in text
        assert "indexPersist" not in text

    def test_stream_knobs_round_trip(self):
        xml = CONFIG_XML.replace(
            'odThreshold="0.65"',
            'odThreshold="0.65" streamParse="true" '
            'spillDir="/tmp/sxnm-spill" spillMaxRows="512"')
        config = load_config(xml)
        assert config.stream_parse is True
        assert config.spill_dir == "/tmp/sxnm-spill"
        assert config.spill_max_rows == 512
        reloaded = load_config(dump_config(config))
        assert reloaded.stream_parse is True
        assert reloaded.spill_dir == "/tmp/sxnm-spill"
        assert reloaded.spill_max_rows == 512

    def test_stream_knob_defaults_and_omission(self):
        from repro.config.model import DEFAULT_SPILL_MAX_ROWS
        config = load_config(CONFIG_XML)
        assert config.stream_parse is False
        assert config.spill_dir is None
        assert config.spill_max_rows == DEFAULT_SPILL_MAX_ROWS
        text = dump_config(config)
        assert "streamParse" not in text
        assert "spillDir" not in text
        assert "spillMaxRows" not in text

    def test_programmatic_config_dumps(self):
        config = SxnmConfig()
        config.add(CandidateSpec.build(
            "disc", "catalog/disc",
            od=[("did/text()", 0.4), ("artist[1]/text()", 0.3),
                ("dtitle[1]/text()", 0.3)],
            keys=[[("artist[1]/text()", "K1-K4"), ("year/text()", "D3,D4")]]))
        text = dump_config(config)
        reloaded = load_config(text)
        assert reloaded.candidate("disc").pass_count == 1


class TestRetiredAttributes:
    """Config files written for the removed pooled execution planes or
    the removed batched comparison still load, and detect exactly as if
    the attributes were absent."""

    RETIRED = ('workers="4" executionPlane="shm" parallelMinRows="0" '
               'workerPoolPersist="false" sharedMemoryMinBytes="0" '
               'batchCompare="true"')

    def test_config_with_retired_attributes_detects_identically(self):
        from repro.core import SxnmDetector
        from repro.datagen import generate_dirty_movies
        from repro.experiments import dataset1_config
        plain_xml = dump_config(dataset1_config())
        retired_xml = plain_xml.replace(
            "<sxnm-config ", f"<sxnm-config {self.RETIRED} ", 1)
        assert retired_xml != plain_xml
        movies = generate_dirty_movies(40, seed=5, profile="effectiveness")
        plain = SxnmDetector(load_config(plain_xml)).run(movies, window=6)
        retired = SxnmDetector(load_config(retired_xml)).run(movies,
                                                             window=6)
        for name, outcome in plain.outcomes.items():
            other = retired.outcomes[name]
            assert other.pairs == outcome.pairs
            assert other.comparisons == outcome.comparisons
            assert ([list(cluster) for cluster in other.cluster_set]
                    == [list(cluster) for cluster in outcome.cluster_set])
        for attribute in ("workers", "executionPlane", "parallelMinRows",
                          "workerPoolPersist", "sharedMemoryMinBytes",
                          "batchCompare"):
            assert attribute not in dump_config(load_config(retired_xml))
