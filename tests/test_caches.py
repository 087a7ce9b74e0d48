"""The once-per-process values: the CLI parser, the named groups, the design
tables and the type tables. A cached value is read-only, equals a fresh
build, and leaves every artifact as a fresh process writes it."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decouplab import cli, ensembles, typicality
from decouplab.errors import CapError

ROOT = Path(__file__).parents[1]
ARTIFACTS = ("manifest.json", "results.csv", "summary.json")


def _configs(tmp_path) -> list[Path]:
    """The demo configs, then the certify and design configs of the bench
    reference, each as a file."""
    paths = sorted((ROOT / "demos" / "configs").glob("*.json"))
    ref = json.loads((ROOT / "bench" / "reference.json").read_text())
    items = [item for part in ("certify", "design") for item in ref[part]["experiments"]]
    for i, item in enumerate(items):
        p = tmp_path / "configs" / f"ref{i:02d}-{item['kind']}.json"
        p.parent.mkdir(exist_ok=True)
        p.write_text(json.dumps(item["config"]))
        paths.append(p)
    return paths


def test_caches_leak_no_state(tmp_path, capsys):
    configs = _configs(tmp_path)
    for cfg in configs:
        subprocess.run([sys.executable, "-m", "decouplab.cli", "run", str(cfg),
                        "--output-dir", str(tmp_path / "fresh" / cfg.stem)],
                       check=True, capture_output=True)
    for cache in (ensembles._design_tables, typicality.enumerate_types):
        cache.cache_clear()
    # the second pass runs backwards, so the (dim, t) keys come back in
    # another order and the table cache drops and rebuilds some of them
    for rerun, order in (("first", configs), ("second", configs[::-1])):
        for cfg in order:
            out = tmp_path / rerun / cfg.stem
            assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 0
            for name in ARTIFACTS:
                fresh = tmp_path / "fresh" / cfg.stem / name
                assert out.joinpath(name).read_bytes() == fresh.read_bytes(), (rerun, cfg.stem, name)
    capsys.readouterr()
    keys = set()
    for cfg in map(cli.load_config, configs):
        if cfg.experiment == "design-verify":
            keys.add((cli._checked_ensemble(cfg).dim, cfg.t))
    assert len(keys) > 2
    assert ensembles._design_tables.cache_info().misses > len(keys)


def test_one_parser_per_process():
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("build, n_qubits", [(ensembles.pauli_group, 1),
                                             (ensembles.pauli_group, 2),
                                             (ensembles.clifford_group, 1)])
def test_group_members_read_only_and_fresh(build, n_qubits):
    # one read-only stack per group, shared by every ensemble built on it
    members = build(n_qubits)
    assert build(n_qubits) is members
    with pytest.raises(ValueError):
        members[0, 0, 0] = 0.0
    fresh = build.__wrapped__(n_qubits)
    assert fresh is not members
    np.testing.assert_array_equal(members, fresh)
    assert ensembles.enumerated_ensemble(members).members is members


def test_design_tables_read_only_and_fresh():
    tab = ensembles._design_tables(2, 3)
    assert ensembles._design_tables(2, 3) is tab
    fresh = ensembles._design_tables.__wrapped__(2, 3)
    arrays = ["perms", "moved", "ginv", "factors", "fixers", "parts"]
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(tab, name).flat[0] = 1
        np.testing.assert_array_equal(getattr(tab, name), getattr(fresh, name))
    for got, want in [*zip(tab.groups, fresh.groups), *zip(tab.at, fresh.at)]:
        with pytest.raises(ValueError):
            got.flat[0] = 1
        np.testing.assert_array_equal(got, want)
    assert tab.sizes == fresh.sizes


def test_capped_design_check_leaves_no_table():
    ensembles._design_tables.cache_clear()
    with pytest.raises(CapError):
        ensembles.qtpe_lambda(ensembles.haar_ensemble(8, seed=0), 3, samples=2)
    info = ensembles._design_tables.cache_info()
    assert (info.currsize, info.misses) == (0, 0)


def _fits_a_float(size: int) -> bool:
    try:
        float(size)
    except OverflowError:
        return False
    return True


@pytest.mark.parametrize("n, probs", [(120, (1 / 3, 1 / 3, 1 / 3)), (120, (0.2, 0.3, 0.5)),
                                      (1100, (0.99, 0.01))])
def test_float_masses_are_python_products(n, probs):
    table = typicality.enumerate_types(n, len(probs))
    counts, sizes, floats = table
    with pytest.raises(ValueError):
        floats[0] = 0.0
    assert np.isfinite(floats).tolist() == [_fits_a_float(s) for s in sizes]
    assert floats[np.isfinite(floats)].tolist() == [float(s) for s in sizes if _fits_a_float(s)]
    rows = np.flatnonzero(np.isfinite(floats))
    qs = typicality._type_probs(counts[rows], probs)
    got = typicality._class_masses(table, rows, qs)
    assert got.tolist() == [sizes[i] * q for i, q in zip(rows.tolist(), qs.tolist())]
    if rows.size < len(sizes):  # a class past the float range is refused
        with pytest.raises(CapError, match="passes the float range"):
            typicality._class_masses(table, np.arange(len(sizes)),
                                     typicality._type_probs(counts, probs))


def test_results_match_csv_writer(tmp_path):
    cfg = cli.ExperimentConfig(experiment="entropy", seed=12)
    series = {"b:x": [0.1, -0.0, 1e-300, 2.0**-1074, float("nan")],
              "a:y": np.array([float("inf"), -float("inf"), 1 / 3, 12345678.9])}
    cli._write_results(tmp_path, cfg, series)
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["experiment", "seed", "sample_index", "value"])
    for name in sorted(series):
        for i, v in enumerate(np.asarray(series[name], dtype=float)):
            writer.writerow([name, cfg.seed, i, "%.17g" % v])
    assert tmp_path.joinpath("results.csv").read_bytes() == want.getvalue().encode()
