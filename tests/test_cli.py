"""Command-line pipeline: configs, presets, subcommands, reproducibility."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil

import pytest
from conftest import TINY_SPEC

from gcodeguard import _pool, cli, detectors
from gcodeguard.cli import (
    PRESETS,
    ExperimentConfig,
    detect_corpus,
    load_config,
    main,
    stage_seed,
)
from gcodeguard.detectors import DETECTOR_NAMES, cluster_agglomerative, fit_pca
from gcodeguard.features import build_matrix, extract, standardize, write_features_csv
from gcodeguard.gcode import GcodeDocument, parse_document
from gcodeguard.mutate import STRATEGY_IDS, RangeMode
from gcodeguard.synthgen import SpecimenSpec, generate_dataset


class TestStageSeed:
    def test_deterministic(self):
        assert stage_seed(719, "generate") == stage_seed(719, "generate")

    def test_labels_decorrelate(self):
        assert stage_seed(719, "generate") != stage_seed(719, "compromise")

    def test_masters_decorrelate(self):
        assert stage_seed(719, "generate") != stage_seed(720, "generate")

    def test_range(self):
        assert 0 <= stage_seed(0, "x") < 2 ** 64


class TestPresets:
    def test_catalogue(self):
        assert set(PRESETS) == {"d1", "d2-desk", "d2-full"}
        d1 = PRESETS["d1"]
        assert (d1.dataset_id, d1.count, d1.angular_step) == ("D1", 180, 1.0)
        assert d1.victims == {"ID1": 2}
        desk = PRESETS["d2-desk"]
        assert (desk.dataset_id, desk.count, desk.angular_step) == ("D2", 720, 0.5)
        assert desk.victims == {sid: 5 for sid in STRATEGY_IDS}
        full = PRESETS["d2-full"]
        assert (full.count, full.angular_step) == (4320, 0.25)
        assert full.victims == {sid: 10 for sid in STRATEGY_IDS}

    def test_all_presets_validate(self):
        for cfg in PRESETS.values():
            cfg.validate()
            assert cfg.seed == 719


class TestExperimentConfig:
    def base(self, **kw):
        fields = dict(dataset_id="D1", count=10, angular_step=2.0)
        fields.update(kw)
        return ExperimentConfig(**fields)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            self.base(count=0).validate()
        with pytest.raises(ValueError):
            self.base(angular_step=0.0).validate()
        with pytest.raises(ValueError):
            self.base(victims={"ID9": 1}).validate()
        with pytest.raises(ValueError):
            self.base(victims={"ID1": 11}).validate()
        with pytest.raises(ValueError):
            self.base(detectors=("single_stat", "psychic")).validate()
        with pytest.raises(ValueError):
            self.base(range_overrides={"ID1": "middle75"}).validate()
        with pytest.raises(ValueError, match="unknown detector: 'nosuch'"):
            self.base(detector_params={"dbscan": {}, "nosuch": {}}).validate()
        with pytest.raises(ValueError, match="^detector params must be a JSON object, got list$"):
            self.base(detector_params=[]).validate()
        with pytest.raises(ValueError, match="^dbscan: parameter overrides must be a JSON object"):
            self.base(detector_params={"dbscan": 5}).validate()

    def test_strategy_resolution(self):
        cfg = self.base(range_overrides={"ID1": "full100"})
        assert cfg.strategy("ID1").range_mode is RangeMode.FULL100
        assert cfg.strategy("ID6").range_mode is RangeMode.MIDDLE50

    def test_json_dict_is_sorted_and_complete(self):
        cfg = self.base(victims={"ID6": 1, "ID1": 2})
        data = cfg.to_json_dict()
        assert list(data["victims"]) == ["ID1", "ID6"]
        assert data["seed"] == 719


class TestLoadConfig:
    def ns(self, **kw):
        base = dict(config=None, preset=None, seed=None, detectors=None)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_preset_path(self):
        cfg = load_config(self.ns(preset="d1"))
        assert cfg == PRESETS["d1"]

    def test_config_file_with_preset_base(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "d1", "count": 24, "victims": {"ID1": 1}}))
        cfg = load_config(self.ns(config=str(path)))
        assert cfg.dataset_id == "D1"
        assert cfg.count == 24
        assert cfg.angular_step == 1.0
        assert cfg.victims == {"ID1": 1}

    def test_integral_numbers_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "d1", "count": 24.0, "victims": {"ID1": 1.0}}))
        cfg = load_config(self.ns(config=str(path)))
        assert (cfg.count, cfg.victims) == (24, {"ID1": 1})
        assert type(cfg.count) is int and type(cfg.victims["ID1"]) is int

    def test_flag_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "d1"}))
        cfg = load_config(
            self.ns(config=str(path), seed=123, detectors="single_stat,dbscan")
        )
        assert cfg.seed == 123
        assert cfg.detectors == ("single_stat", "dbscan")

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            load_config(self.ns())


TINY_CLI_CONFIG = {
    "dataset_id": "D1",
    "count": 12,
    "angular_step": 30.0,
    "victims": {"ID1": 1, "ID6": 1},
    "seed": 77,
}


@pytest.fixture(scope="module")
def cli_pipeline(tmp_path_factory):
    """generate -> compromise -> detect -> evaluate on a 12-file corpus."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CLI_CONFIG))
    original = root / "original"
    blind = root / "blind"
    truth = root / "truth"
    flags = root / "flags"
    report = root / "report"
    assert main(["generate", "--config", str(cfg_path), "--out", str(original)]) == 0
    assert main([
        "compromise", "--config", str(cfg_path), "--src", str(original),
        "--out", str(blind), "--truth", str(truth),
    ]) == 0
    assert main([
        "detect", "--src", str(blind), "--out", str(flags),
        "--detectors", "single_stat,combined_stat,dbscan",
    ]) == 0
    assert main([
        "evaluate", "--flags", str(flags), "--truth", str(truth / "truth.json"),
        "--manifest", str(blind / "manifest.json"), "--out", str(report),
    ]) == 0
    return root


class TestPipeline:
    def test_generate_outputs(self, cli_pipeline):
        original = cli_pipeline / "original"
        assert len(list(original.glob("*.gcode"))) == 12
        manifest = json.loads((original / "manifest.json").read_text())
        assert len(manifest["entries"]) == 12

    def test_compromise_outputs(self, cli_pipeline):
        truth = json.loads((cli_pipeline / "truth" / "truth.json").read_text())
        victims = truth["victims"]
        assert len(victims) == 2
        assert sorted(v["strategy"] for v in victims) == ["ID1", "ID6"]
        assert len(list((cli_pipeline / "truth" / "logs").glob("*.json"))) == 2

        victim_paths = {v["path"] for v in victims}
        for path in (cli_pipeline / "original").glob("*.gcode"):
            pristine = path.read_bytes()
            copied = (cli_pipeline / "blind" / path.name).read_bytes()
            if path.name in victim_paths:
                assert copied != pristine
            else:
                assert copied == pristine

    def test_detect_outputs(self, cli_pipeline):
        flags = cli_pipeline / "flags"
        names = {p.name for p in flags.iterdir()}
        assert names == {
            "features.csv", "pca_scatter.csv",
            "single_stat.json", "combined_stat.json", "dbscan.json",
        }
        scatter = (flags / "pca_scatter.csv").read_text().splitlines()
        assert scatter[0] == "path,pc1,pc2,cluster_label"
        assert len(scatter) == 13
        # agglomerative was not requested, so scatter labels are placeholders
        assert all(line.endswith(",-1") for line in scatter[1:])

    def test_evaluate_outputs(self, cli_pipeline):
        report = json.loads((cli_pipeline / "report" / "report.json").read_text())
        assert report["total_files"] == 12
        assert report["victim_count"] == 2
        assert set(report["detectors"]) == {"single_stat", "combined_stat", "dbscan"}
        assert (cli_pipeline / "report" / "report.csv").exists()

    def test_detect_rerun_is_byte_identical(self, cli_pipeline):
        flags = cli_pipeline / "flags"
        rerun = cli_pipeline / "flags_rerun"
        assert main([
            "detect", "--src", str(cli_pipeline / "blind"), "--out", str(rerun),
            "--detectors", "single_stat,combined_stat,dbscan",
        ]) == 0
        for path in flags.iterdir():
            assert (rerun / path.name).read_bytes() == path.read_bytes()


def per_file_matrix(src, manifest):
    return build_matrix([
        extract(parse_document((src / en.path).read_bytes()), path=en.path)
        for en in manifest.entries
    ])


class TestDetectCorpusSinglePass:
    def test_features_csv_matches_per_file_extraction(self, tiny_corpus, tmp_path):
        src, manifest = tiny_corpus
        detect_corpus(src, tmp_path / "flags", ("single_stat",), {})
        fm = per_file_matrix(src, manifest)
        write_features_csv(fm, tmp_path / "expected.csv")
        assert (tmp_path / "flags" / "features.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    def test_builds_no_parsed_document(self, tiny_corpus, tmp_path, monkeypatch):
        src, manifest = tiny_corpus

        def refuse(*args, **kwargs):
            raise AssertionError("detect_corpus built parsed g-code objects")

        monkeypatch.setattr(cli, "parse_document", refuse)
        monkeypatch.setattr(GcodeDocument, "__init__", refuse)
        detect_corpus(src, tmp_path / "flags", ("single_stat",), {})
        rows = (tmp_path / "flags" / "features.csv").read_text().splitlines()
        assert len(rows) == 1 + len(manifest.entries)


class TestDetectCorpusComputesOnce:
    def test_one_standardize_one_pca_one_ward(self, tiny_corpus, tmp_path, monkeypatch):
        src, _ = tiny_corpus
        calls = dict.fromkeys(("standardize", "fit_pca", "cluster_agglomerative"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(detectors, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(detectors, name, counted)
        detect_corpus(src, tmp_path / "flags", DETECTOR_NAMES, {})
        assert calls == {"standardize": 1, "fit_pca": 1, "cluster_agglomerative": 1}

    def test_scatter_is_ward_on_the_pca_projection(self, tiny_corpus, tmp_path):
        src, manifest = tiny_corpus
        detect_corpus(src, tmp_path / "flags", DETECTOR_NAMES, {})
        fm = per_file_matrix(src, manifest)
        z = standardize(fm.matrix)
        pts = fit_pca(z, 2).transform(z)
        labels = cluster_agglomerative(pts)
        expected = ["path,pc1,pc2,cluster_label"] + [
            f"{p},{float(pc1)!r},{float(pc2)!r},{int(lab)}"
            for p, (pc1, pc2), lab in zip(fm.paths, pts, labels)
        ]
        rows = (tmp_path / "flags" / "pca_scatter.csv").read_text().splitlines()
        assert rows == expected
        for row in rows[1:]:
            _, pc1, pc2, _ = row.split(",")
            float(pc1), float(pc2)  # plain decimals, no numpy repr


class TestRunAll:
    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run-all", "--preset", "d1", "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()
        plan = json.loads(capsys.readouterr().out)
        assert plan["config"]["dataset_id"] == "D1"
        assert set(plan["stage_seeds"]) == {"generate", "compromise"}

    def test_tiny_run_layout(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CLI_CONFIG))
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 0
        for sub in ("original", "blind", "truth", "flags", "report"):
            assert (out / sub).is_dir()
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["config"]["seed"] == 77
        assert metadata["stage_seeds"]["generate"] == stage_seed(77, "generate")
        assert "created_utc" in metadata
        report = json.loads((out / "report" / "report.json").read_text())
        assert set(report["detectors"]) == {
            "single_stat", "combined_stat", "pca_agglomerative",
            "pca_meanshift", "dbscan",
        }


# Out-of-range overrides: a NaN bandwidth or eps would run the clustering on
# NaN and flag clean files, a null threshold or fractional min_samples would
# raise inside the detector.
OUT_OF_RANGE_OVERRIDES = [
    (
        {"pca_meanshift": {"bandwidth": float("nan")}},
        "pca_meanshift: bandwidth must be a finite number > 0, got nan",
    ),
    ({"dbscan": {"eps": float("nan")}}, "dbscan: eps must be a finite number > 0, got nan"),
    (
        {"single_stat": {"threshold": None}},
        "single_stat: threshold must be a finite number > 0, got None",
    ),
    ({"dbscan": {"min_samples": 2.5}}, "dbscan: min_samples must be an int >= 1, got 2.5"),
]


# Config values that int() would take but that are not what was meant.
STRICT_CONFIGS = [
    ({"preset": "d1", "count": 60.9}, "bad config value: count must be an integer, got 60.9"),
    ({"preset": "d1", "seed": True}, "bad config value: seed must be an integer, got True"),
    ({"preset": "d1", "count": "60"}, "bad config value: count must be an integer, got '60'"),
    (
        {"preset": "d1", "victims": {"ID1": 1.5}},
        "bad config value: victims ID1 must be an integer, got 1.5",
    ),
    ({"preset": "d1", "victim": {"ID6": 1}}, "unknown config key(s): 'victim'"),
]


class TestErrorPaths:
    def test_unknown_detector(self, tmp_path):
        assert main([
            "detect", "--src", str(tmp_path), "--out", str(tmp_path / "f"),
            "--detectors", "psychic",
        ]) == 1

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"dbscan": {"epsilon": 0.5}}, "dbscan: unknown parameter override(s): 'epsilon'"),
            ({"dbscan": {"eps": 0.5}, "nosuch": {}}, "unknown detector: 'nosuch'"),
        ],
    )
    def test_unknown_detector_params(self, params, message, tiny_corpus, tmp_path, capsys):
        src, _ = tiny_corpus
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "flags"
        assert main([
            "detect", "--src", str(src), "--out", str(out), "--params", str(params_path),
        ]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"dbscan": 5}, "dbscan: parameter overrides must be a JSON object, got int"),
            ([], "detector params must be a JSON object, got list"),
            *OUT_OF_RANGE_OVERRIDES,
        ],
    )
    def test_malformed_detector_params(self, params, message, tiny_corpus, tmp_path, capsys):
        src, _ = tiny_corpus
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "flags"
        assert main([
            "detect", "--src", str(src), "--out", str(out), "--params", str(params_path),
        ]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("params,message", OUT_OF_RANGE_OVERRIDES)
    def test_out_of_range_detector_params_in_config(self, params, message, tmp_path, capsys):
        # run-all refuses the config before it generates anything
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"preset": "d1", "detector_params": params}))
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_detector_params_in_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"preset": "d1", "detector_params": {"dbscan": 5}}))
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: dbscan: parameter overrides must be a JSON object, got int\n"
        )
        assert not out.exists()

    def test_empty_corpus(self, tmp_path):
        assert main([
            "detect", "--src", str(tmp_path), "--out", str(tmp_path / "f"),
        ]) == 1

    def test_failing_detector_writes_nothing(self, tiny_corpus, tmp_path, capsys):
        src, manifest = tiny_corpus
        few = tmp_path / "few"
        few.mkdir()
        for entry in manifest.entries[:3]:
            (few / entry.path).write_bytes((src / entry.path).read_bytes())
        out = tmp_path / "flags"
        assert main(["detect", "--src", str(few), "--out", str(out)]) == 1
        assert "need more than 4 points" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_bad_config_value(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"preset": "d1", "count": 0}))
        assert main([
            "generate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        ]) == 1

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"preset": "d1", "count": None}, "bad config value: int() argument"),
            ({"preset": "d1", "victims": {"ID1": [2]}}, "bad config value: int() argument"),
            ([{"preset": "d1"}], "config must be a JSON object, got list"),
            *STRICT_CONFIGS,
        ],
    )
    def test_bad_config_type(self, config, message, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main([
            "run-all", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--dry-run",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config,message", STRICT_CONFIGS)
    def test_strict_config_generates_nothing(self, config, message, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_config_source(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "o")]) == 1

    def test_evaluate_without_flags(self, tmp_path):
        empty = tmp_path / "flags"
        empty.mkdir()
        assert main([
            "evaluate", "--flags", str(empty), "--truth", "x", "--manifest", "y",
            "--out", str(tmp_path / "r"),
        ]) == 1


def single_cpu(monkeypatch):
    """Make ``map_ordered`` in this process see one usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pooled_corpus(tmp_path_factory):
    """(pooled, in_process): one tiny sweep large enough to start workers,
    generated once through the pool and once in-process."""
    count = 2 * _pool.FILES_PER_WORKER
    root = tmp_path_factory.mktemp("pooled")
    pooled, in_process = root / "pooled", root / "in_process"
    generate_dataset(TINY_SPEC, count, 6.0, pooled, seed=5, dataset_id="TINY")
    with pytest.MonkeyPatch.context() as mp:
        single_cpu(mp)
        generate_dataset(TINY_SPEC, count, 6.0, in_process, seed=5, dataset_id="TINY")
    return pooled, in_process


@pytest.mark.skipif(_pool._usable_cpus() < 2, reason="fewer than 2 usable CPUs: no workers start")
class TestPooledStages:
    """generate and detect give the same bytes through workers as in-process,
    and the first bad file in sorted order fails detect with nothing written."""

    def test_generate_is_byte_identical(self, pooled_corpus):
        pooled, in_process = pooled_corpus
        assert len(list(pooled.glob("*.gcode"))) == 2 * _pool.FILES_PER_WORKER
        assert tree_bytes(pooled) == tree_bytes(in_process)
        assert multiprocessing.active_children() == []

    def test_detect_is_byte_identical(self, pooled_corpus, tmp_path, monkeypatch):
        src, _ = pooled_corpus
        assert main(["detect", "--src", str(src), "--out", str(tmp_path / "pooled")]) == 0
        single_cpu(monkeypatch)
        assert main(["detect", "--src", str(src), "--out", str(tmp_path / "in_process")]) == 0
        assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "in_process")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("m83_at,ff_at", [(45, 17), (17, 45)])
    def test_first_bad_file_fails_detect(self, m83_at, ff_at, pooled_corpus, tmp_path, capsys):
        src = tmp_path / "hostile"
        shutil.copytree(pooled_corpus[0], src)
        names = sorted(p.name for p in src.glob("*.gcode"))
        with open(src / names[m83_at], "a") as fh:
            fh.write("M83\n")
        with open(src / names[ff_at], "ab") as fh:
            fh.write(b"\xff")
        out = tmp_path / "flags"
        assert main(["detect", "--src", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        first = names[min(m83_at, ff_at)]
        reason = "relative extrusion (M83)" if m83_at < ff_at else "not ASCII"
        assert err.startswith(f"error: {first}: ") and reason in err
        assert err.count("\n") == 1
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestUntouchableVictims:
    def test_skipped_victims_leave_truth_empty(self, tmp_path, capsys):
        # two layers: the middle half of the layer list is empty, so the
        # planned victims cannot be touched and must drop out of the truth
        spec = SpecimenSpec(
            name="wafer16x8",
            footprint=((-8.0, -4.0), (8.0, -4.0), (8.0, 4.0), (-8.0, 4.0)),
            height=0.4,
            layer_height=0.2,
            infill_line_distance=2.0,
        )
        src = tmp_path / "src"
        generate_dataset(spec, 4, 30.0, src, seed=5, dataset_id="D1")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "dataset_id": "D1", "count": 4, "angular_step": 30.0,
            "victims": {"ID1": 2}, "seed": 9,
        }))
        blind = tmp_path / "blind"
        truth = tmp_path / "truth"
        assert main([
            "compromise", "--config", str(cfg_path), "--src", str(src),
            "--out", str(blind), "--truth", str(truth),
        ]) == 0
        assert "skipping" in capsys.readouterr().err
        truth_data = json.loads((truth / "truth.json").read_text())
        assert truth_data["victims"] == []
        for path in src.glob("*.gcode"):
            assert (blind / path.name).read_bytes() == path.read_bytes()
