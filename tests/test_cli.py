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
from gcodeguard._json import dumps
from gcodeguard.cli import (
    PRESETS,
    ExperimentConfig,
    detect_corpus,
    load_config,
    main,
    stage_seed,
)
from gcodeguard.detectors import DETECTOR_NAMES, FlagSet, cluster_agglomerative, fit_pca
from gcodeguard.features import build_matrix, extract, standardize, write_features_csv
from gcodeguard.gcode import GcodeDocument, parse_document
from gcodeguard.mutate import STRATEGY_IDS, CompromisePlan, plan_compromise
from gcodeguard.synthgen import DatasetManifest, SpecimenSpec, generate_dataset


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
            self.base(angular_step=float("nan")).validate()
        with pytest.raises(ValueError):
            self.base(victims={"ID1": -1}).validate()
        with pytest.raises(ValueError):
            self.base(victims={"ID9": 1}).validate()
        with pytest.raises(ValueError):
            self.base(victims={"ID1": 11}).validate()
        with pytest.raises(ValueError):
            self.base(detectors=("single_stat", "psychic")).validate()

    def test_json_dict_is_sorted_and_complete(self):
        cfg = self.base(victims={"ID6": 1, "ID1": 2})
        data = json.loads(dumps(cfg))
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
        detect_corpus(src, tmp_path / "flags", ("single_stat",))
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
        detect_corpus(src, tmp_path / "flags", ("single_stat",))
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
        detect_corpus(src, tmp_path / "flags", DETECTOR_NAMES)
        assert calls == {"standardize": 1, "fit_pca": 1, "cluster_agglomerative": 1}

    def test_scatter_is_ward_on_the_pca_projection(self, tiny_corpus, tmp_path):
        src, manifest = tiny_corpus
        detect_corpus(src, tmp_path / "flags", DETECTOR_NAMES)
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
        json_files = sorted(out.rglob("*.json"))
        # two manifests, truth, two logs, five flag sets, report, run metadata
        assert len(json_files) == 12
        for path in json_files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_records_load_back_equal(self, tmp_path):
        cfg = ExperimentConfig(**TINY_CLI_CONFIG)
        original, blind, truth_dir, flags_dir, _ = (tmp_path / n for n in cli.RUN_LAYOUT)
        manifest = cli.generate_corpus(cfg, original)
        _, truth = cli.compromise_corpus(cfg, original, blind, truth_dir)
        flag_sets = detect_corpus(blind, flags_dir, cfg.detectors)
        assert len(truth.victims) == 2
        assert DatasetManifest.load(original / "manifest.json") == manifest
        assert DatasetManifest.load(blind / "manifest.json") == manifest
        data = json.loads((truth_dir / "truth.json").read_text())
        assert CompromisePlan.from_json_dict(data) == truth
        for fs in flag_sets:
            assert FlagSet.load(flags_dir / f"{fs.detector}.json") == fs

    def test_same_bytes_as_the_four_subcommands(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CLI_CONFIG))
        cfg, steps = str(cfg_path), tmp_path / "steps"
        original, blind, truth, flags = (str(steps / n) for n in cli.RUN_LAYOUT[:4])
        assert main(["generate", "--config", cfg, "--out", original]) == 0
        assert main([
            "compromise", "--config", cfg, "--src", original, "--out", blind, "--truth", truth,
        ]) == 0
        assert main(["detect", "--src", blind, "--out", flags]) == 0
        assert main([
            "evaluate", "--flags", flags, "--truth", f"{truth}/truth.json",
            "--manifest", f"{blind}/manifest.json", "--out", str(steps / "report"),
        ]) == 0
        run = tmp_path / "run"
        assert main(["run-all", "--config", cfg, "--out", str(run)]) == 0
        run_tree = {k: v for k, v in tree_bytes(run).items() if k.name != "run_metadata.json"}
        assert tree_bytes(steps) == run_tree


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
    ({"preset": "d1", "victims": {"ID1": -1}}, "negative count for ID1: -1"),
    (
        {"preset": "d1", "angular_step": float("nan")},
        "angular_step must be a finite number > 0, got nan",
    ),
    (
        {"preset": "d1", "angular_step": float("inf")},
        "angular_step must be a finite number > 0, got inf",
    ),
    (
        {"preset": "d1", "angular_step": True},
        "bad config value: angular_step must be a number, got True",
    ),
    (
        {"preset": "d1", "angular_step": "2"},
        "bad config value: angular_step must be a number, got '2'",
    ),
    ({"preset": "d1", "detectors": []}, "detectors must be a non-empty list of names"),
    (
        {"preset": "d1", "detectors": "dbscan"},
        "bad config value: detectors must be a non-empty list of names, got 'dbscan'",
    ),
    (
        {"preset": "d1", "detectors": ["single_stat", "dbscan", "single_stat"]},
        "detector named twice: 'single_stat'",
    ),
    ({"preset": ["d1"]}, "unknown preset: ['d1']"),
    ({"preset": "d9"}, "unknown preset: 'd9'"),
    ({"count": 12, "angular_step": 30.0}, "missing config key(s): 'dataset_id'"),
    # Detectors run with their own constants: there is no key to set them.
    (
        {"preset": "d1", "detector_params": {"dbscan": {"eps": 9}}},
        "unknown config key(s): 'detector_params'",
    ),
    # Each strategy runs on its documented range: there is no key to move it.
    (
        {"preset": "d1", "range_overrides": {"ID1": "full100"}},
        "unknown config key(s): 'range_overrides'",
    ),
]


# Evaluate inputs of the wrong shape: (file replaced, its content, message
# after the file name).
MALFORMED_EVALUATE_INPUTS = [
    ("truth.json", {"dataset_id": "D1", "seed": 1, "victims": 5}, "'int' object is not iterable"),
    ("truth.json", [], "expected a JSON object, got list"),
    ("truth.json", {"dataset_id": "D1", "victims": []}, "missing key 'seed'"),
    ("truth.json", {"dataset_id": "D1", "seed": 1, "victims": [{"path": "a"}]},
     "missing key 'strategy'"),
    ("flags/single_stat.json", [], "expected a JSON object, got list"),
    ("flags/single_stat.json", {"detector": "single_stat"}, "missing key 'parameters'"),
    ("manifest.json", [], "expected a JSON object, got list"),
    ("manifest.json", {"dataset_id": "D1", "generator_version": "1", "entries": 3},
     "'int' object is not iterable"),
    ("flags/single_stat.json",
     {"detector": "single_stat", "parameters": {}, "flagged": "blind/a.gcode", "scores": {}},
     "flagged must be a list of path strings"),
    ("flags/single_stat.json",
     {"detector": "single_stat", "parameters": {}, "flagged": [], "scores": {"a.gcode": "1.5"}},
     "scores must map paths to numbers"),
    ("flags/single_stat.json", {"detector": ["x"], "parameters": {}, "flagged": [], "scores": {}},
     "detector must be a non-empty string"),
    ("flags/single_stat.json", {"detector": 5, "parameters": {}, "flagged": [], "scores": {}},
     "detector must be a non-empty string"),
    ("flags/single_stat.json",
     {"detector": "single_stat", "parameters": [], "flagged": [], "scores": {}},
     "parameters must be a JSON object"),
    ("truth.json",
     {"dataset_id": "D1", "seed": 1, "victims": [{"path": "a.gcode", "strategy": "ID9"}]},
     "unknown strategy in victims: 'ID9'"),
    ("manifest.json",
     {"dataset_id": "D1", "generator_version": "1",
      "entries": [{"path": "../outside.gcode", "angle_deg": 0.0, "seed": 1}]},
     "entry path must be a bare .gcode file name, got '../outside.gcode'"),
    ("manifest.json",
     {"dataset_id": "D1", "generator_version": "1",
      "entries": [{"path": "a.gcode", "angle_deg": 0.0, "seed": 1}] * 2},
     "entry path listed twice: 'a.gcode'"),
    ("truth.json",
     {"dataset_id": "D1", "seed": 1,
      "victims": [{"path": "a.gcode", "strategy": "ID1"}, {"path": "a.gcode", "strategy": "ID3"}]},
     "victim path listed twice: 'a.gcode'"),
]

# Manifest entry paths that compromise must refuse before it writes anything:
# (path of the entry replaced, or None to list the first entry twice, message).
UNSAFE_MANIFEST_PATHS = [
    ("../outside.gcode", "entry path must be a bare .gcode file name, got '../outside.gcode'"),
    ("sub/part.gcode", "entry path must be a bare .gcode file name, got 'sub/part.gcode'"),
    ("sub\\part.gcode", "entry path must be a bare .gcode file name, got 'sub\\\\part.gcode'"),
    ("..", "entry path must be a bare .gcode file name, got '..'"),
    ("notes.txt", "entry path must be a bare .gcode file name, got 'notes.txt'"),
    (None, "entry path listed twice: 'chip16x8_0000.gcode'"),
]


class TestErrorPaths:
    def test_unknown_detector(self, tmp_path):
        assert main([
            "detect", "--src", str(tmp_path), "--out", str(tmp_path / "f"),
            "--detectors", "psychic",
        ]) == 1

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

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"preset": "d1",}')
        assert main(["run-all", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: Expecting property name enclosed in double quotes: "
            "line 1 column 17 (char 16)\n"
        )
        assert not (tmp_path / "o").exists()

    def test_params_flag_is_an_argparse_error(self, tiny_corpus, tmp_path, capsys):
        src, _ = tiny_corpus
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"dbscan": {"eps": 9}}))
        out = tmp_path / "flags"
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--src", str(src), "--out", str(out), "--params", str(params_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --params" in capsys.readouterr().err
        assert not out.exists()

    def test_one_file_with_stat_detectors_only(self, tiny_corpus, tmp_path, capsys):
        src, manifest = tiny_corpus
        one = tmp_path / "one"
        one.mkdir()
        name = manifest.entries[0].path
        (one / name).write_bytes((src / name).read_bytes())
        out = tmp_path / "flags"
        assert main([
            "detect", "--src", str(one), "--out", str(out),
            "--detectors", "single_stat,combined_stat",
        ]) == 0
        assert (out / "pca_scatter.csv").read_text() == "path,pc1,pc2,cluster_label\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "combined_stat.json", "features.csv", "pca_scatter.csv", "single_stat.json",
        ]

    def test_missing_config_source(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("name,content,message", MALFORMED_EVALUATE_INPUTS)
    def test_malformed_evaluate_input(self, name, content, message, cli_pipeline, tmp_path,
                                      capsys):
        flags = tmp_path / "flags"
        shutil.copytree(cli_pipeline / "flags", flags)
        shutil.copy(cli_pipeline / "truth" / "truth.json", tmp_path)
        shutil.copy(cli_pipeline / "blind" / "manifest.json", tmp_path)
        bad = tmp_path / name
        bad.write_text(json.dumps(content))
        out = tmp_path / "report"
        assert main([
            "evaluate", "--flags", str(flags), "--truth", str(tmp_path / "truth.json"),
            "--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_evaluate_refuses_two_flag_sets_of_one_detector(self, cli_pipeline, tmp_path,
                                                             capsys):
        flags = tmp_path / "flags"
        shutil.copytree(cli_pipeline / "flags", flags)
        dbscan = json.loads((flags / "dbscan.json").read_text())
        (flags / "dbscan.json").write_text(json.dumps({**dbscan, "detector": "single_stat"}))
        out = tmp_path / "report"
        assert main([
            "evaluate", "--flags", str(flags),
            "--truth", str(cli_pipeline / "truth" / "truth.json"),
            "--manifest", str(cli_pipeline / "blind" / "manifest.json"), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {flags / 'single_stat.json'}: names detector 'single_stat', "
            f"as {flags / 'dbscan.json'} does\n"
        )
        assert not out.exists()

    def test_oversized_layer_number_names_the_file(self, tiny_corpus, tmp_path, capsys):
        # More digits than int() converts: a scan fault, not a bare ValueError.
        src = tmp_path / "src"
        shutil.copytree(tiny_corpus[0], src)
        victim = sorted(src.glob("*.gcode"))[3]
        lines = victim.read_bytes().count(b"\n")
        with open(victim, "a") as fh:
            fh.write(";LAYER:" + "9" * 4301 + "\n")
        out = tmp_path / "flags"
        assert main(["detect", "--src", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {victim.name}: layer number too long (line {lines + 1})\n"
        assert not out.exists()

    @pytest.mark.parametrize("path,message", UNSAFE_MANIFEST_PATHS)
    def test_compromise_refuses_unsafe_manifest_paths(self, path, message, tiny_corpus,
                                                      tmp_path, capsys):
        src = tmp_path / "src"
        shutil.copytree(tiny_corpus[0], src)
        manifest = json.loads((src / "manifest.json").read_text())
        entries = manifest["entries"]
        if path is None:
            entries.append(entries[0])
        else:
            shutil.copy(src / entries[1]["path"], tmp_path / "outside.gcode")
            entries[1]["path"] = path
        (src / "manifest.json").write_text(json.dumps(manifest))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY_CLI_CONFIG, "victims": {"ID1": 12}}))
        before = tree_bytes(tmp_path)
        deep = tmp_path / "deep"
        assert main([
            "compromise", "--config", str(cfg_path), "--src", str(src),
            "--out", str(deep / "blind"), "--truth", str(deep / "truth"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {src / 'manifest.json'}: {message}\n"
        assert tree_bytes(tmp_path) == before

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


# Enough files to start workers, and to hold the hostile files at 17 and 45
# in test_first_bad_file_fails_detect.
POOLED_FILES = max(2 * _pool.FILES_PER_WORKER, 60)


@pytest.fixture(scope="module")
def pooled_corpus(tmp_path_factory):
    """(pooled, in_process): one tiny sweep large enough to start workers,
    generated once through the pool and once in-process."""
    root = tmp_path_factory.mktemp("pooled")
    pooled, in_process = root / "pooled", root / "in_process"
    generate_dataset(TINY_SPEC, POOLED_FILES, 6.0, pooled, seed=5, dataset_id="TINY")
    with pytest.MonkeyPatch.context() as mp:
        single_cpu(mp)
        generate_dataset(TINY_SPEC, POOLED_FILES, 6.0, in_process, seed=5, dataset_id="TINY")
    return pooled, in_process


def pooled_compromise(cfg_path, src, out):
    """``main`` on compromise from ``src`` into ``out/blind`` and ``out/truth``."""
    return main([
        "compromise", "--config", str(cfg_path), "--src", str(src),
        "--out", str(out / "blind"), "--truth", str(out / "truth"),
    ])


@pytest.fixture
def pooled_config(tmp_path):
    """A config with one victim per strategy over the pooled corpus."""
    path = tmp_path / "pooled.json"
    path.write_text(json.dumps({
        "dataset_id": "D1", "count": POOLED_FILES, "angular_step": 6.0,
        "victims": {sid: 1 for sid in STRATEGY_IDS}, "seed": 5,
    }))
    return path


@pytest.mark.skipif(_pool._usable_cpus() < 2, reason="fewer than 2 usable CPUs: no workers start")
class TestPooledStages:
    """generate, compromise and detect give the same bytes through workers as
    in-process; the first bad file in sorted order fails detect with nothing
    written, and the first bad victim in manifest order fails compromise."""

    def test_generate_is_byte_identical(self, pooled_corpus):
        pooled, in_process = pooled_corpus
        assert len(list(pooled.glob("*.gcode"))) == POOLED_FILES
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
        data = (src / first).read_bytes()
        if m83_at < ff_at:
            lines = data.count(b"\n")
            reason = (
                f"relative extrusion (M83) is outside the supported subset (line {lines}): 'M83'"
            )
        else:
            reason = (
                f"not ASCII: 'ascii' codec can't decode byte 0xff in position "
                f"{len(data) - 1}: ordinal not in range(128)"
            )
        assert err == f"error: {first}: {reason}\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_compromise_is_byte_identical(self, pooled_corpus, pooled_config, tmp_path,
                                          monkeypatch, capsys):
        src, _ = pooled_corpus
        runs = {}
        for name in ("pooled", "in_process"):
            if name == "in_process":
                single_cpu(monkeypatch)
            assert pooled_compromise(pooled_config, src, tmp_path / name) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith(f"compromised {len(STRATEGY_IDS)} of {POOLED_FILES} ")
            runs[name] = tree_bytes(tmp_path / name), captured.err
        assert runs["pooled"] == runs["in_process"]
        written, _ = runs["pooled"]
        assert sum(path.parts[:2] == ("truth", "logs") for path in written) == len(STRATEGY_IDS)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("m83_first", [True, False])
    def test_first_bad_victim_fails_compromise(self, m83_first, pooled_corpus, pooled_config,
                                               tmp_path, capsys):
        src = tmp_path / "hostile"
        shutil.copytree(pooled_corpus[0], src)
        manifest = DatasetManifest.load(src / "manifest.json")
        counts = {sid: 1 for sid in STRATEGY_IDS}
        plan = plan_compromise(manifest, counts, stage_seed(5, "compromise"))
        victims = {v.path for v in plan.victims}
        first, second = [en.path for en in manifest.entries if en.path in victims][:2]
        m83, ff = (first, second) if m83_first else (second, first)
        with open(src / m83, "a") as fh:
            fh.write("M83\n")
        with open(src / ff, "ab") as fh:
            fh.write(b"\xff")
        assert pooled_compromise(pooled_config, src, tmp_path / "out") == 1
        data = (src / first).read_bytes()
        if m83_first:
            lines = data.count(b"\n")
            reason = (
                f"relative extrusion (M83) is outside the supported subset (line {lines}): 'M83'"
            )
        else:
            reason = (
                f"not ASCII: 'ascii' codec can't decode byte 0xff in position "
                f"{len(data) - 1}: ordinal not in range(128)"
            )
        assert capsys.readouterr().err == f"error: {first}: {reason}\n"
        assert not (tmp_path / "out" / "truth" / "truth.json").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pooled", [True, False])
    def test_failed_compromise_leaves_nothing_behind(self, pooled, pooled_corpus, pooled_config,
                                                     tmp_path, monkeypatch, capsys):
        """The first victim fails while the other files are still being
        copied and mutated; neither copy nor logs are left."""
        src = tmp_path / "hostile"
        shutil.copytree(pooled_corpus[0], src)
        manifest = DatasetManifest.load(src / "manifest.json")
        counts = {sid: 1 for sid in STRATEGY_IDS}
        plan = plan_compromise(manifest, counts, stage_seed(5, "compromise"))
        first = min(v.path for v in plan.victims)
        with open(src / first, "a") as fh:
            fh.write("M83\n")
        if not pooled:
            single_cpu(monkeypatch)
        assert pooled_compromise(pooled_config, src, tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {first}: relative extrusion (M83)")
        assert not (tmp_path / "out" / "blind").exists()
        assert not (tmp_path / "out" / "truth").exists()
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pooled", [True, False])
    def test_failed_compromise_into_a_reused_out_leaves_no_index(
        self, pooled, pooled_corpus, pooled_config, tmp_path, monkeypatch, capsys
    ):
        """A run that fails into the directories of an earlier good run takes
        away that run's manifest and truth, which name the copies it removed."""
        src = tmp_path / "hostile"
        shutil.copytree(pooled_corpus[0], src)
        if not pooled:
            single_cpu(monkeypatch)
        out = tmp_path / "out"
        assert pooled_compromise(pooled_config, src, out) == 0
        assert (out / "blind" / "manifest.json").exists()
        assert (out / "truth" / "truth.json").exists()
        truth = json.loads((out / "truth" / "truth.json").read_text())
        first = min(v["path"] for v in truth["victims"])
        with open(src / first, "a") as fh:
            fh.write("M83\n")
        capsys.readouterr()
        assert pooled_compromise(pooled_config, src, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {first}: relative extrusion (M83)")
        assert not (out / "blind" / "manifest.json").exists()
        assert not (out / "truth" / "truth.json").exists()
        assert [p for p in out.rglob("*") if p.is_file()] == []
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
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        assert captured.out == f"compromised 0 of 4 files -> {blind}\n"
        truth_data = json.loads((truth / "truth.json").read_text())
        assert truth_data["victims"] == []
        for path in src.glob("*.gcode"):
            assert (blind / path.name).read_bytes() == path.read_bytes()

