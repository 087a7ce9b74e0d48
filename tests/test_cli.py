"""Config loading, artifact layout, exit codes, and rerun determinism."""

import hashlib
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decouplab
from decouplab import cli, ensembles, linalg, quantum
from decouplab.errors import ConfigError, DomainError


def write_config(tmp_path, name="cfg.json", **payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def tiny_expect_config(tmp_path, out, seed=7, name="cfg.json"):
    return write_config(
        tmp_path, name=name, experiment="decouple-expect",
        dims={"a": 2, "r": 2}, samples=6, seed=seed, output_dir=str(out),
    )


# descriptors the codec rejects as malformed: a ConfigError (exit 2)
MALFORMED_ENSEMBLES = [
    pytest.param({"kind": "haar"}, id="haar-without-dim"),
    pytest.param({"kind": "haar", "dim": "4"}, id="ensemble-string-dim"),
    pytest.param({"kind": "nonsense", "dim": 2}, id="unknown-kind"),
    pytest.param({"kind": "haar", "dim": 2, "seed": -1}, id="ensemble-negative-seed"),
    pytest.param({"kind": "haar", "dim": True}, id="ensemble-bool-dim"),
    pytest.param({"kind": "iterated", "iterations": 2.9, "base": {"kind": "haar", "dim": 2}},
                 id="ensemble-float-iterations"),
    pytest.param({"kind": "iterated", "iterations": 2,
                  "base": {"kind": "haar", "dim": 2, "seed": -3}}, id="base-negative-seed"),
    pytest.param({"kind": "circuit", "n_qubits": 2, "depth": "1"}, id="ensemble-string-depth"),
    pytest.param({"kind": "enumerated", "name": "pauli", "n_qubits": 1.0},
                 id="ensemble-float-qubits"),
    pytest.param({"kind": "circuit", "n_qubits": 2, "depth": 1, "dim": 8},
                 id="circuit-dim-mismatch"),
    pytest.param({"kind": "enumerated", "name": "clifford", "n_qubits": 1, "dim": 4},
                 id="clifford-dim-mismatch"),
    pytest.param({"kind": "iterated", "iterations": 2,
                  "base": {"kind": "circuit", "n_qubits": 2, "depth": 1, "dim": 2}},
                 id="base-dim-mismatch"),
    pytest.param({"kind": "enumerated", "name": "pauli", "n_qubits": 1, "members": []},
                 id="members-on-pauli"),
    pytest.param({"kind": "haar", "dim": 4, "bogus": 1}, id="unread-key"),
    pytest.param({"kind": "iterated", "iterations": 2,
                  "base": {"kind": "haar", "dim": 2, "depth": 3}}, id="unread-key-in-base"),
    # a restated derived key must be the built ensemble's own value
    pytest.param({"kind": "iterated", "seed": 5, "iterations": 2,
                  "base": {"kind": "haar", "dim": 2}}, id="iterated-seed-mismatch"),
    pytest.param({"kind": "haar", "dim": 2, "name": "foo"}, id="haar-name-mismatch"),
    pytest.param({"kind": "circuit", "n_qubits": 2, "depth": 1, "name": "foo"},
                 id="circuit-name-mismatch"),
    pytest.param({"kind": "iterated", "iterations": 2, "name": "haar^3",
                  "base": {"kind": "haar", "dim": 2}}, id="iterated-name-mismatch"),
    # inline members are read strictly
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 2, "cols": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]}]}, id="member-size-mismatch"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": "2", "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}]},
        id="member-string-rows"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 2.5, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}]},
        id="member-float-rows"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0], "extra": 1}]},
        id="member-extra-key"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 1, "cols": 1, "re": [1], "im": "0"}]}, id="member-scalar-im"),
]

# descriptors of ensembles that cannot exist: a DomainError (exit 3)
INVALID_ENSEMBLES = [
    pytest.param({"kind": "enumerated", "members": []}, id="no-members"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 1, "cols": 1, "re": [1], "im": [0]},
        {"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}]}, id="mixed-sizes"),
    pytest.param({"kind": "enumerated", "members": [
        {"rows": 2, "cols": 2, "re": [2, 0, 0, 1], "im": [0, 0, 0, 0]}]}, id="non-unitary"),
    pytest.param({"kind": "circuit", "n_qubits": 1, "depth": 2}, id="one-qubit-circuit"),
    pytest.param({"kind": "haar", "dim": 0}, id="dim-0"),
    pytest.param({"kind": "enumerated", "name": "pauli", "n_qubits": 3},
                 id="pauli-three-qubits"),
]


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        p = write_config(tmp_path, experiment="entropy", dims={"a": 2, "b": 2})
        cfg = cli.load_config(p)
        assert cfg.experiment == "entropy"
        assert cfg.samples == 200
        assert cfg.out_path.name == "entropy"

    def test_unknown_keys_listed(self, tmp_path):
        p = write_config(tmp_path, experiment="entropy", smaples=3, foo=1)
        with pytest.raises(ConfigError) as err:
            cli.load_config(p)
        assert "foo" in str(err.value) and "smaples" in str(err.value)

    def test_json_error_has_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"experiment": "entropy",\n  "samples": }\n')
        with pytest.raises(ConfigError) as err:
            cli.load_config(p)
        assert "line 2" in str(err.value)

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            cli.load_config(p)

    def test_missing_experiment(self, tmp_path):
        p = write_config(tmp_path, samples=5)
        with pytest.raises(ConfigError) as err:
            cli.load_config(p)
        assert err.value.field == "experiment"

    def test_probs_coerced(self, tmp_path):
        p = write_config(tmp_path, experiment="typicality", probs=[0.5, 0.5],
                         n=4)
        cfg = cli.load_config(p)
        assert cfg.probs == (0.5, 0.5)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            cli.ExperimentConfig(experiment="decouple")
        assert err.value.field == "experiment"

    @pytest.mark.parametrize("overrides,field", [
        ({"samples": 0}, "samples"),
        ({"epsilon": -0.1}, "epsilon"),
        ({"delta": -1.0}, "delta"),
        ({"kappa": 0.0}, "kappa"),
        ({"t": 0}, "t"),
        ({"n": 0}, "n"),
        ({"dims": {"a": 2.5}}, "dims"),
    ])
    def test_field_errors(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            cli.ExperimentConfig(experiment="entropy", **overrides)
        assert err.value.field == field

    def test_default_output_dir(self):
        cfg = cli.ExperimentConfig(experiment="fqsw")
        assert str(cfg.out_path) == "runs/fqsw"


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        p = write_config(tmp_path, experiment="typicality", n=4)
        assert cli.main(["validate", str(p)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_does_not_run(self, tmp_path):
        out = tmp_path / "never"
        p = tiny_expect_config(tmp_path, out)
        assert cli.main(["validate", str(p)]) == 0
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        p = write_config(tmp_path, experiment="entropy", samples=-3)
        assert cli.main(["validate", str(p)]) == 2
        assert "samples" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])


def a_file(tmp_path):
    p = tmp_path / "a_file"
    p.write_text("")
    return p


def latin1_config(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"experiment": "entropy", "output_dir": "caf\xe9"}')
    return p


# argv for each input that is a file problem rather than a config problem
FILE_PROBLEMS = {
    "run-a-directory": lambda d: ["run", str(d)],
    "validate-a-directory": lambda d: ["validate", str(d)],
    "config-not-utf8": lambda d: ["run", str(latin1_config(d))],
    "output-dir-is-a-file": lambda d: ["run", str(tiny_expect_config(d, a_file(d)))],
    "output-dir-flag-is-a-file": lambda d: [
        "run", str(tiny_expect_config(d, d / "out")), "--output-dir", str(a_file(d))],
    "output-parent-is-a-file": lambda d: [
        "run", str(tiny_expect_config(d, a_file(d) / "out"))],
}


class TestFileProblems:
    @pytest.mark.parametrize("case", sorted(FILE_PROBLEMS))
    def test_exits_two_with_one_line(self, tmp_path, capsys, case):
        assert cli.main(FILE_PROBLEMS[case](tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestRunArtifacts:
    def test_three_files_and_echo(self, tmp_path):
        out = tmp_path / "run1"
        p = tiny_expect_config(tmp_path, out)
        assert cli.main(["run", str(p)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["config"]["experiment"] == "decouple-expect"
        assert manifest["config"]["seed"] == 7
        assert manifest["version"] == decouplab.__version__
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_holds"] is True
        assert summary["mean_f"] <= summary["expectation_bound"] + 1e-6
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "experiment,seed,sample_index,value"
        assert len(lines) == 1 + 6

    def test_series_sorted_by_name(self, tmp_path):
        out = tmp_path / "run2"
        p = write_config(
            tmp_path, experiment="decouple-tail", dims={"a": 2, "r": 2},
            samples=3, seed=1, output_dir=str(out),
        )
        assert cli.main(["run", str(p)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        names = [r.split(",")[0] for r in rows]
        assert names == ["decouple-tail:f"] * 3 + ["decouple-tail:g"] * 3

    def test_output_dir_override(self, tmp_path):
        configured = tmp_path / "configured"
        actual = tmp_path / "actual"
        p = tiny_expect_config(tmp_path, configured)
        assert cli.main(["run", str(p), "--output-dir", str(actual)]) == 0
        assert actual.joinpath("summary.json").exists()
        assert not configured.exists()

    def test_manifest_records_thread_settings(self, tmp_path, monkeypatch):
        # unset variables are recorded as null
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert cli.main(["run", str(tiny_expect_config(tmp_path, out))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}

    def test_failed_run_leaves_manifest(self, tmp_path, capsys):
        out = tmp_path / "run3"
        p = write_config(
            tmp_path, experiment="design-verify", t=1, samples=4,
            ensemble={"kind": "enumerated", "name": "pauli", "n_qubits": 3},
            output_dir=str(out),
        )
        assert cli.main(["run", str(p)]) == 3
        assert "computation error" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "DomainError" in manifest["error"]
        assert not (out / "summary.json").exists()

    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg, ens):
            raise MemoryError("Unable to allocate 1.00 GiB for an array")

        entry = cli.DRIVERS["decouple-expect"]
        monkeypatch.setitem(cli.DRIVERS, "decouple-expect", (no_memory, *entry[1:]))
        out = tmp_path / "oom"
        assert cli.main(["run", str(tiny_expect_config(tmp_path, out))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("computation error: out of memory: Unable to allocate")
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "MemoryError" in manifest["error"]

    @pytest.mark.parametrize("n", [700, 1100])
    def test_large_typicality_n_ends_cleanly(self, tmp_path, n):
        # the type-class sizes and count bounds leave the float range here
        out = tmp_path / "out"
        p = write_config(tmp_path, experiment="typicality", probs=[0.5, 0.5], n=n,
                         output_dir=str(out))
        proc = subprocess.run([sys.executable, "-m", "decouplab.cli", "run", str(p)],
                              capture_output=True, text=True)
        assert proc.returncode in (0, 3)
        assert "Traceback" not in proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == ("complete" if proc.returncode == 0 else "failed")

    @pytest.mark.parametrize("payload", [
        {"experiment": "decouple-tail", "dims": {"a": 4, "r": 2, "b": 2}},
        {"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}},
        {"experiment": "moments", "dims": {"a": 4, "r": 2, "b": 2}},
    ], ids=["decouple-tail", "fqsw", "moments"])
    def test_large_kappa_ends_cleanly(self, tmp_path, payload):
        # kappa^2 and kappa^4 leave the float range: t reads inf, the Markov bound 0
        out = tmp_path / "out"
        p = write_config(tmp_path, samples=3, kappa=1e200, output_dir=str(out), **payload)
        proc = subprocess.run([sys.executable, "-m", "decouplab.cli", "run", str(p)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"

    @pytest.mark.parametrize("payload", [
        {"experiment": "moments", "dims": {"a": 4, "r": 2, "b": 2}},
        {"experiment": "decouple-tail", "dims": {"a": 4, "r": 2, "b": 2}},
        {"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}},
        {"experiment": "lipschitz", "dims": {"a": 4, "r": 2, "b": 2}},
    ], ids=["moments", "decouple-tail", "fqsw", "lipschitz"])
    def test_tiny_kappa_ends_cleanly(self, tmp_path, payload):
        # kappa^4 underflows to 0.0: the Markov bound reads inf
        out = tmp_path / "out"
        p = write_config(tmp_path, samples=3, kappa=1e-200, output_dir=str(out), **payload)
        proc = subprocess.run([sys.executable, "-m", "decouplab.cli", "run", str(p)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"

    def test_fqsw_log2_lambda_where_the_float_underflows(self, tmp_path):
        # a2 = 98 is the first non-vacuous tail at a1 = 2, r = 1: t = 38, and
        # both the requirement and the window fall below the smallest float
        a1, a2 = 2, 98
        out = tmp_path / "out"
        p = write_config(tmp_path, experiment="fqsw", dims={"a1": a1, "a2": a2, "r": 1},
                         kappa=0.5, samples=2, output_dir=str(out))
        assert cli.main(["run", str(p)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        tail = summary["tail"]
        t = tail["t"]
        assert not tail["vacuous"] and t == 38
        assert tail["lambda_required"] == 0.0
        assert summary["lambda_window"] == [0.0, 0.0]
        log2_lam = t * (-8.0 * math.log2(a1 * a2) - 6.0 * math.log2(a1)
                        + 2.0 * math.log2(tail["mu"]))
        assert math.isfinite(tail["log2_lambda_required"])
        assert tail["log2_lambda_required"] == pytest.approx(log2_lam, rel=1e-12)
        h2 = math.log2(summary["closed_form"]["tail_a"] / a2) + 9.0
        log2_base = -9.0 * math.log2(a2) - 13.0 * math.log2(a1) - h2
        assert summary["log2_lambda_window"] == pytest.approx(
            [t * (math.log2(0.008) + log2_base), t * log2_base], rel=1e-12)

    @pytest.mark.parametrize("n,code", [(700, 0), (1100, 3), (5000, 3)])
    def test_typicality_float_range_exit_codes(self, tmp_path, n, code):
        out = tmp_path / "out"
        p = write_config(tmp_path, experiment="typicality", probs=[0.5, 0.5], n=n,
                         output_dir=str(out))
        assert cli.main(["run", str(p)]) == code

    @pytest.mark.parametrize("overrides", [
        pytest.param({"samples": 2.5}, id="float-samples"),
        pytest.param({"samples": "10"}, id="string-samples"),
        pytest.param({"seed": -1}, id="negative-seed"),
        pytest.param({"seed": True}, id="bool-seed"),
        pytest.param({"samples": True}, id="bool-samples"),
        pytest.param({"experiment": "typicality", "probs": ["x"]}, id="string-probs"),
        pytest.param({"experiment": "typicality", "probs": 5}, id="scalar-probs"),
        pytest.param({"experiment": "typicality", "probs": [0.5, 0.6]}, id="probs-over-one"),
        pytest.param({"experiment": "typicality", "probs": [-0.5, 1.5]},
                     id="negative-probs"),
    ] + [
        # design-verify reads no dims, so only the descriptor can be at fault
        pytest.param({"experiment": "design-verify", "dims": {}, "ensemble": p.values[0]},
                     id=p.id) for p in MALFORMED_ENSEMBLES
    ])
    def test_malformed_config_exits_two(self, tmp_path, capsys, overrides):
        payload = {"experiment": "decouple-expect", "dims": {"a": 2, "r": 2},
                   "samples": 4, "t": 1, "output_dir": str(tmp_path / "out")}
        payload.update(overrides)
        p = write_config(tmp_path, **payload)
        assert cli.main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        if "ensemble" in overrides:
            assert err.startswith("config error (key: ensemble)")

    @pytest.mark.parametrize("make", [
        lambda: ensembles.haar_ensemble(4, seed=3),
        lambda: ensembles.random_circuit_ensemble(2, 2, seed=1),
        lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(1), name="pauli"),
        lambda: ensembles.enumerated_ensemble(ensembles.pauli_group(1), name="custom"),
        lambda: ensembles.iterate_ensemble(
            ensembles.enumerated_ensemble(ensembles.clifford_group(1), name="clifford"), 2),
    ], ids=["haar", "circuit", "pauli", "custom", "iterated"])
    def test_echoed_descriptor_loads(self, make):
        # every key ensemble_to_json writes, name included, is accepted back
        desc = json.loads(json.dumps(ensembles.ensemble_to_json(make())))
        assert ensembles.ensemble_to_json(ensembles.ensemble_from_json(desc)) == desc

    def test_inline_group_members_load(self, tmp_path):
        # Pauli(1) inlined under its own name is read as the members it lists
        # and echoed as the group it is
        desc = {"kind": "enumerated", "name": "pauli", "members": [
            linalg.matrix_to_json(m) for m in ensembles.pauli_group(1)]}
        assert ensembles.ensemble_to_json(ensembles.ensemble_from_json(desc))["n_qubits"] == 1
        out = tmp_path / "out"
        p = write_config(tmp_path, experiment="design-verify", t=1, samples=4,
                         ensemble=desc, output_dir=str(out))
        assert cli.main(["run", str(p)]) == 0
        echo = json.loads((out / "summary.json").read_text())["ensemble"]
        assert echo["n_qubits"] == 1 and "members" not in echo

    def test_reader_serialises_nothing(self, monkeypatch):
        # an iterate of an iterate over an inline base loads without writing
        # any level or member back out
        def refuse(*args):
            raise AssertionError("the reader serialised")
        desc = {"kind": "iterated", "iterations": 2, "base": {
            "kind": "iterated", "iterations": 3, "name": "custom^3", "seed": 4,
            "base": {"kind": "enumerated", "name": "custom", "seed": 4, "dim": 2,
                     "members": [linalg.matrix_to_json(m) for m in ensembles.pauli_group(1)]}}}
        monkeypatch.setattr(ensembles, "ensemble_to_json", refuse)
        monkeypatch.setattr(linalg, "matrix_to_json", refuse)
        built = ensembles.ensemble_from_json(desc)
        assert (built.name, built.seed, built.base.base.members.shape) == ("custom^3^2", 4, (4, 2, 2))

    @pytest.mark.parametrize("desc, error", [
        pytest.param(p.values[0], ConfigError, id=p.id) for p in MALFORMED_ENSEMBLES
    ] + [pytest.param(p.values[0], DomainError, id=p.id) for p in INVALID_ENSEMBLES])
    def test_codec_rejects_what_the_cli_does(self, desc, error):
        # the library loads descriptors through the same checks as the CLI
        with pytest.raises(error):
            ensembles.ensemble_from_json(desc)

    @pytest.mark.parametrize("ensemble", INVALID_ENSEMBLES)
    def test_invalid_ensemble_exits_three(self, tmp_path, capsys, ensemble):
        p = write_config(tmp_path, experiment="decouple-expect", dims={"a": 2, "r": 2},
                         samples=4, ensemble=ensemble, output_dir=str(tmp_path / "out"))
        assert cli.main(["run", str(p)]) == 3
        err = capsys.readouterr().err
        assert "computation error: DomainError" in err and "Traceback" not in err

    def test_config_error_in_driver_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run4"
        p = write_config(
            tmp_path, experiment="design-verify", t=1, samples=4,
            output_dir=str(out),
        )
        assert cli.main(["run", str(p)]) == 2
        assert "ensemble" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"experiment": "entropy", "dims": {"a": 2, "b": 2}, "ensemble": {"kind": "nonsense"}},
        {"experiment": "typicality", "ensemble": {"kind": "haar", "dim": 2}},
    ], ids=["entropy", "typicality"])
    def test_ensemble_on_an_experiment_without_draws(self, tmp_path, capsys, payload):
        # an experiment that draws nothing would ignore the descriptor
        p = write_config(tmp_path, **payload)
        assert cli.main(["validate", str(p)]) == 2
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and "takes no ensemble" in err
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    @pytest.mark.parametrize("payload, key", [
        ({"experiment": "decouple-expect", "dims": {"a": 4, "r": 2, "z": 3}}, "'z'"),
        ({"experiment": "entropy", "dims": {"a": 2, "b": 2, "r": 2}}, "'r'"),
        ({"experiment": "typicality", "dims": {"a": 2}}, "'a'"),
        ({"experiment": "design-verify", "dims": {"a": 2},
          "ensemble": {"kind": "enumerated", "name": "pauli", "n_qubits": 1}}, "'a'"),
    ], ids=["decouple-expect", "entropy", "typicality", "design-verify"])
    def test_unread_dims_key(self, tmp_path, capsys, payload, key):
        # a dims key the experiment never reads would be silently ignored
        p = write_config(tmp_path, samples=2, **payload)
        assert cli.main(["validate", str(p)]) == 2
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("(key: dims)") == 2 and err.count(f"does not read dims[{key}]") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload, key", [
        ({"experiment": "decouple-tail", "dims": {"a": 1, "r": 2}}, "dims['a']"),
        ({"experiment": "moments", "dims": {"a": 1, "r": 2}}, "dims['a']"),
        ({"experiment": "thermalize", "dims": {"s": 1, "e": 1, "r": 2}},
         "dims['s'] * dims['e']"),
        ({"experiment": "fqsw", "dims": {"a1": 1, "a2": 4, "r": 2}}, "dims['a1']"),
    ], ids=["decouple-tail", "moments", "thermalize", "fqsw"])
    def test_dims_outside_the_closed_forms(self, tmp_path, capsys, payload, key):
        # the Haar second moment needs |A| >= 2 and fqsw two registers of at
        # least 2, which the dims decide before any compute
        p = write_config(tmp_path, samples=3, **payload)
        assert cli.main(["validate", str(p)]) == 2
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("(key: dims)") == 2 and err.count(f"needs {key} >= 2") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload, key", [
        ({"experiment": "decouple-tail", "dims": {"a": 2, "r": 2}}, "epsilon"),
        ({"experiment": "entropy", "dims": {"a": 2, "b": 2}}, "epsilon"),
        ({"experiment": "fqsw", "dims": {"a1": 2, "a2": 2, "r": 2}}, "epsilon"),
        ({"experiment": "lipschitz", "dims": {"a": 2, "r": 2}}, "epsilon"),
        ({"experiment": "moments", "dims": {"a": 2, "r": 2}}, "epsilon"),
        ({"experiment": "thermalize", "dims": {"s": 2, "e": 2, "r": 2}}, "epsilon"),
        ({"experiment": "typicality", "probs": [0.5, 0.5], "n": 4}, "epsilon"),
        ({"experiment": "thermalize", "dims": {"s": 2, "e": 2, "r": 2},
          "epsilon": 0.0, "kappa": 8}, "kappa"),
        ({"experiment": "entropy", "dims": {"a": 2, "b": 2}, "epsilon": math.nan},
         "epsilon"),
        ({"experiment": "thermalize", "dims": {"s": 2, "e": 2, "r": 2},
          "epsilon": 0.0, "kappa": math.nan}, "kappa"),
    ], ids=["decouple-tail", "entropy", "fqsw", "lipschitz", "moments", "thermalize",
            "typicality", "thermalize-default-kappa8", "entropy-nan",
            "thermalize-kappa-nan"])
    def test_epsilon_outside_the_ball(self, tmp_path, capsys, payload, key):
        # epsilon >= 1 or NaN, given or thermalize's default kappa^2 / 60,
        # leaves nothing to smooth inside the ball, which the config decides
        p = write_config(tmp_path, samples=3, **{"epsilon": 1.0, **payload})
        assert cli.main(["validate", str(p)]) == 2
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"(key: {key})") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        {"experiment": "decouple-tail", "dims": {"a": 3, "r": 3, "b": 3}, "samples": 1},
        {"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}, "samples": 3},
        {"experiment": "thermalize", "dims": {"s": 2, "e": 2, "r": 2}, "samples": 3},
    ], ids=["decouple-tail", "fqsw", "thermalize"])
    def test_delta_past_a_third_has_no_tail(self, tmp_path, payload):
        # the tail statement needs delta < 1/3, whatever the draws give
        p = write_config(tmp_path, delta=1.0, **payload)
        assert cli.main(["validate", str(p)]) == 0
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["tail"] is None

    @pytest.mark.parametrize("payload", [
        {"experiment": "lipschitz", "dims": {"a": 1, "r": 2}},
        {"experiment": "decouple-expect", "dims": {"a": 1, "r": 2}},
        {"experiment": "thermalize", "dims": {"s": 1, "e": 2, "r": 2}},
    ], ids=["lipschitz", "decouple-expect", "thermalize"])
    def test_dims_inside_the_closed_forms(self, tmp_path, payload):
        p = write_config(tmp_path, samples=3, **payload)
        assert cli.main(["validate", str(p)]) == 0
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("payload", [
        {"experiment": "decouple-tail", "dims": {"a": 4, "r": 2, "b": 2},
         "epsilon": 0.05, "delta": 0.1},
        {"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}},
    ], ids=["decouple-tail", "fqsw"])
    def test_runs_no_density_check(self, tmp_path, monkeypatch, payload):
        # a run builds its state with random_state and derives every other
        # operator from it, so DensitySystem's eigen-check never runs
        counted = []
        monkeypatch.setattr(quantum.DensitySystem, "__post_init__",
                            lambda self: counted.append(self.shape))
        p = write_config(tmp_path, samples=3, **payload)
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 0
        assert counted == []

    def test_design_verify_nested_clifford_iterate_is_exact(self, tmp_path):
        # iterated(iterated(Clifford(1), 2), 2) is as exact as its flat iterate
        out = tmp_path / "nested"
        clifford = {"kind": "enumerated", "name": "clifford", "n_qubits": 1}
        nested = {"kind": "iterated", "iterations": 2,
                  "base": {"kind": "iterated", "iterations": 2, "base": clifford}}
        p = write_config(tmp_path, experiment="design-verify", t=2, samples=20,
                         ensemble=nested, output_dir=str(out))
        assert cli.main(["run", str(p)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["design"]["lambda"] <= 1e-10

    def test_design_verify_exact_pauli(self, tmp_path):
        out = tmp_path / "run5"
        p = write_config(
            tmp_path, experiment="design-verify", t=1, samples=4,
            ensemble={"kind": "enumerated", "name": "pauli", "n_qubits": 1},
            output_dir=str(out),
        )
        assert cli.main(["run", str(p)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["design"]["lambda"] <= 1e-10
        assert summary["design"]["t"] == 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            p = tiny_expect_config(tmp_path, out, name=f"{tag}.json")
            assert cli.main(["run", str(p)]) == 0
            digests.append(hashlib.sha256(
                (out / "results.csv").read_bytes()
            ).hexdigest())
        assert digests[0] == digests[1]

    def test_seed_changes_results(self, tmp_path):
        digests = []
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            p = tiny_expect_config(tmp_path, out, seed=seed,
                                   name=f"seed{seed}.json")
            assert cli.main(["run", str(p)]) == 0
            digests.append(hashlib.sha256(
                (out / "results.csv").read_bytes()
            ).hexdigest())
        assert digests[0] != digests[1]


class TestSharedWork:
    @pytest.mark.parametrize("payload, prepares", [
        ({"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}}, 1),
        ({"experiment": "decouple-expect", "dims": {"a": 4, "r": 2, "b": 2}}, 1),
        ({"experiment": "decouple-tail", "dims": {"a": 4, "r": 2, "b": 2}}, 1),
        ({"experiment": "lipschitz", "dims": {"a": 4, "r": 2, "b": 2}}, 1),
        ({"experiment": "moments", "dims": {"a": 4, "r": 2, "b": 2}}, 1),
        ({"experiment": "thermalize", "dims": {"s": 2, "e": 2, "r": 2}}, 1),
    ], ids=["fqsw", "decouple-expect", "decouple-tail", "lipschitz", "moments",
            "thermalize"])
    def test_prepare_and_choi_once(self, tmp_path, monkeypatch, payload, prepares):
        # every sampling experiment draws its whole stack in one call
        from decouplab import decoupling, quantum
        calls = {"prepare": 0, "choi_state": 0, "sample_batch": 0}

        def counted(owner, name):
            orig = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(decoupling, "prepare")
        counted(quantum, "choi_state")
        counted(ensembles.UnitaryEnsemble, "sample_batch")
        p = write_config(tmp_path, samples=5, seed=3,
                         output_dir=str(tmp_path / "out"), **payload)
        assert cli.main(["run", str(p)]) == 0
        # no run builds the Choi state: prepare reads the thin SVD of the
        # Choi amplitudes and f the fixed output off v
        assert calls == {"prepare": prepares, "choi_state": 0, "sample_batch": 1}

    @pytest.mark.parametrize("payload, key", [
        ({"experiment": "decouple-expect", "dims": {"a": 4, "r": 2}}, "std_error"),
        ({"experiment": "fqsw", "dims": {"a1": 2, "a2": 4, "r": 2}},
         "g_squared_std_error"),
    ], ids=["decouple-expect", "fqsw"])
    def test_one_sample_has_zero_std_error(self, tmp_path, payload, key):
        out = tmp_path / "out"
        p = write_config(tmp_path, samples=1, output_dir=str(out), **payload)
        assert cli.main(["run", str(p)]) == 0
        assert json.loads((out / "summary.json").read_text())[key] == 0.0


# each experiment's own dims keys; the fuzz drops one or adds a foreign one
FUZZ_DIMS = {
    "decouple-expect": ("a", "r", "b"),
    "decouple-tail": ("a", "r", "b"),
    "fqsw": ("a1", "a2", "r"),
    "thermalize": ("s", "e", "r"),
    "design-verify": (),
    "entropy": ("a", "b"),
    "typicality": ("x",),
    "lipschitz": ("a", "r", "b"),
    "moments": ("a", "r", "b"),
}
FUZZ_OPTIONAL = {
    "epsilon": (0.0, 0.01, 0.2),
    "delta": (0.0, 0.1, 0.4),
    "kappa": (0.05, 0.5, 2.0),
}
# every dimension is at most 4, so with t <= 2 no design check passes
# d^(2t) = 256; Clifford(2), which takes about a second to build, is left out
FUZZ_ENSEMBLES = (
    None,
    {"kind": "haar", "dim": 2},
    {"kind": "haar", "dim": 4},
    {"kind": "circuit", "n_qubits": 2, "depth": 1},
    {"kind": "enumerated", "name": "pauli", "n_qubits": 1},
    {"kind": "enumerated", "name": "clifford", "n_qubits": 1},
    {"kind": "iterated", "iterations": 2,
     "base": {"kind": "enumerated", "name": "pauli", "n_qubits": 1}},
    {"kind": "haar"},
    {"kind": "nonsense", "dim": 2},
    {"kind": "iterated", "iterations": 1.5, "base": {"kind": "haar", "dim": 2}},
    {"kind": "haar", "dim": 2, "bogus": 1},
)


@st.composite
def small_configs(draw):
    experiment = draw(st.sampled_from(sorted(cli.DRIVERS)))
    dims = {k: draw(st.integers(1, 4)) for k in FUZZ_DIMS[experiment]}
    change = draw(st.sampled_from(["none", "none", "none", "drop", "add"]))
    if change == "drop" and dims:
        del dims[draw(st.sampled_from(sorted(dims)))]
    if change == "add":
        dims[draw(st.sampled_from(["a", "b", "e", "r", "x", "z"]))] = draw(st.integers(1, 4))
    cfg = {"experiment": experiment, "dims": dims, "samples": draw(st.integers(1, 3)),
           "t": draw(st.integers(1, 2)), "n": draw(st.integers(1, 12))}
    for key, values in FUZZ_OPTIONAL.items():
        if draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(values))
    ensemble = draw(st.sampled_from(FUZZ_ENSEMBLES))
    if ensemble is not None:
        cfg["ensemble"] = ensemble
    return cfg


class TestRunContract:
    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_validate_agrees_with_run(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(payload))
            out = Path(tmp) / "out"
            checked = cli.main(["validate", str(path)])
            ran = cli.main(["run", str(path), "--output-dir", str(out)])
            assert checked in (0, 2, 3) and ran in (0, 2, 3)
            assert (checked == 2) == (ran == 2)
            assert checked != 3 or ran == 3
            if out.joinpath("manifest.json").exists():
                manifest = json.loads(out.joinpath("manifest.json").read_text())
                assert manifest["status"] == ("complete" if ran == 0 else "failed")
                assert (ran == 0) != ("error" in manifest)


class TestConsoleEntry:
    def test_installed_script_runs(self, tmp_path):
        p = write_config(tmp_path, experiment="typicality", n=4)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from decouplab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "validate", str(p)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_package_import_loads_no_module(self):
        # the API is the modules: the package itself exposes only __version__
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, decouplab; "
             "print(sorted(m for m in sys.modules if m == 'numpy' "
             "or m.startswith('decouplab.'))); "
             "print(sorted(n for n in vars(decouplab) if not n.startswith('__')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]

    def test_import_leaves_the_optimizer_unloaded(self, tmp_path):
        # the runtime is numpy only: the CLI loads no part of scipy, and the
        # entropy config, which runs the minimized weight, runs with scipy
        # made unimportable
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, decouplab.cli; "
             "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        config = Path(__file__).parents[1] / "demos" / "configs" / "entropy.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.modules['scipy'] = None; from decouplab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", str(config), "--output-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
