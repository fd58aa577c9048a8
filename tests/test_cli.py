import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fmuod.benchmark
import fmuod.cli
import fmuod.multivariate
from fmuod import (
    DegenerateReference,
    FunctionalDataset,
    InsufficientData,
    InvalidConfig,
    InvalidCurve,
    InvalidDirection,
    MultivariateFunctionalDataset,
    ParseError,
)
from fmuod.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_PARSE, main
from fmuod.io import read_baselines, write_long_csv, write_wide_csv


def run(*argv):
    return main(list(argv))


def simulate_into(tmp_path, model="M1", seed="7", n="40", k="25"):
    out = tmp_path / "sim"
    assert run(
        "simulate", "--model", model, "--n", n, "--k", k, "--seed", seed,
        "--out", str(out),
    ) == 0
    return out


# ---------------------------------------------------------------------------
# happy paths


def test_simulate_writes_data_and_truth(tmp_path, capsys):
    out = simulate_into(tmp_path)
    assert (out / "data.csv").exists()
    assert (out / "truth.csv").exists()
    assert "wrote 40 curves" in capsys.readouterr().out
    truth_lines = (out / "truth.csv").read_text().strip().splitlines()
    assert len(truth_lines) == 1 + 4  # floor(0.1 * 40) outliers


def test_detect_on_simulated_data(tmp_path, capsys):
    out = simulate_into(tmp_path)
    det = tmp_path / "det"
    code = run(
        "detect", "--input", str(out / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ1", "--directions", "20", "--seed", "3",
        "--out", str(det),
    )
    assert code == 0
    assert "FST_PRJ1: flagged" in capsys.readouterr().out
    report = json.loads((det / "report.json").read_text())
    assert report["method"] == "FST_PRJ1"
    assert report["config"]["layout"] == "long_multivariate"
    truth = {
        int(line.split(",", 1)[0])
        for line in (out / "truth.csv").read_text().strip().splitlines()[1:]
    }
    assert truth <= set(report["flags"]["union"])
    flags_lines = (det / "flags.csv").read_text().strip().splitlines()
    assert len(flags_lines) == 1 + 3 * 40


def test_detect_wide_layout_with_marginal_method(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((30, 20)) * 0.3
    values[4] += 9.0
    data_path = tmp_path / "wide.csv"
    write_wide_csv(FunctionalDataset(values), data_path)
    det = tmp_path / "det"
    assert run(
        "detect", "--input", str(data_path), "--layout", "wide_univariate",
        "--method", "FST_MAR", "--out", str(det),
    ) == 0
    report = json.loads((det / "report.json").read_text())
    assert 4 in report["flags"]["union"]
    assert report["thresholds"] is None


@pytest.mark.parametrize(
    "method, labels",
    [
        ("FST_MAR", ["0", "1", "2"]),
        ("FST_STR", ["stringed"]),
        ("FST_PRJ", [str(l) for l in range(12)]),
    ],
    ids=["FST_MAR", "FST_STR", "FST_PRJ"],
)
def test_detect_emit_indices(tmp_path, method, labels):
    out = simulate_into(tmp_path)
    det = tmp_path / "det"
    assert run(
        "detect", "--input", str(out / "data.csv"), "--layout", "long_multivariate",
        "--method", method, "--directions", "12", "--emit-indices", "--out", str(det),
    ) == 0
    lines = (det / "indices.csv").read_text().strip().splitlines()
    assert lines[0] == "component,curve_id,shape,amplitude,magnitude"
    components = [line.split(",", 1)[0] for line in lines[1:]]
    assert components == [label for label in labels for _ in range(40)]


def test_detect_emit_indices_projects_once_per_direction(tmp_path, monkeypatch):
    out = simulate_into(tmp_path)
    rows = []
    original = fmuod.multivariate._project_rows

    def counting_project_rows(values, vectors):
        rows.append(len(vectors))
        return original(values, vectors)

    monkeypatch.setattr(fmuod.multivariate, "_project_rows", counting_project_rows)
    assert run(
        "detect", "--input", str(out / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ", "--directions", "12", "--emit-indices",
        "--out", str(tmp_path / "det"),
    ) == 0
    assert sum(rows) == 12


def detect_digests(tmp_path, *options, n="60"):
    """sha256 of flags.csv and indices.csv of one detect on a fixed M3 sample.

    report.json is left out because it echoes the input path.
    """
    out = simulate_into(tmp_path, model="M3", seed="11", n=n, k="30")
    det = tmp_path / "det"
    assert run(
        "detect", "--input", str(out / "data.csv"), "--layout", "long_multivariate",
        "--seed", "4", "--emit-indices", "--out", str(det), *options,
    ) == 0
    return {
        name: hashlib.sha256((det / name).read_bytes()).hexdigest()
        for name in ("flags.csv", "indices.csv")
    }


def test_detect_projection_outputs_are_pinned(tmp_path):
    # recorded with the per-direction projection loop that the chunked vote
    # kernel replaced
    assert detect_digests(tmp_path, "--method", "FST_PRJ") == {
        "flags.csv": "8b684ced7e0f5a81c565b4bbdabd20c4e316c95464e1b881c72ef361c3a7ad02",
        "indices.csv": "b25155750841398918cf4254767ffcb97f1a54b5b2377e306bdafad055e2ccb7",
    }


@pytest.mark.parametrize(
    "options, flags_sha, indices_sha",
    [
        (
            ("--method", "FST_MAR"),
            "b93fb0450812a3a8068c38e62f8ec98bb13bf77b3419ea38ef6c1cb04d28ac84",
            "757e258c0cefd68f3f33e448b80168f3a399303149853086e9885f7ff5be97d9",
        ),
        (
            ("--method", "FST_STR", "--scale", "minmax"),
            "e6562db9b82fde5f2c241c6d6a1f62dd5266b520a2571f1efce2e5c5fafd28b6",
            "28ff8785a599eaa9847b6e7d542f67a098f9230dd7902e061f8d757ea09df899",
        ),
        (
            ("--method", "FST_MAR", "--variant", "original_absolute"),
            "c03d346e83a7c67fc2270527bb114f768a132e8c63178524b391571b501694f9",
            "d5f47ec64a57c01c37d1d5a06302f2f891c57ad543e5c7958d38bd5b64360b2b",
        ),
        (
            ("--method", "FST_PRJ", "--variant", "original_absolute"),
            "05e7e7cc37a22529700c127652cf9fb62fc4a831414844bbfc3db3b4ae02ee83",
            "6c54b53a7255b5b5d58cdcef30307c640ee49202850b06b6f50fe127d715d173",
        ),
    ],
    ids=["FST_MAR", "FST_STR-minmax", "FST_MAR-absolute", "FST_PRJ-absolute"],
)
def test_detect_outputs_are_pinned(tmp_path, options, flags_sha, indices_sha):
    # recorded before the cutoff rules became module constants
    assert detect_digests(tmp_path, *options) == {
        "flags.csv": flags_sha,
        "indices.csv": indices_sha,
    }


@pytest.mark.parametrize(
    "n, options, flags_sha, indices_sha",
    [
        (
            "61",
            ("--method", "FST_PRJ"),
            "f8634d1e5af68ae435e10c61adff3680268c21b5e3ef64509f2ce6d1e3fb0458",
            "aa040efa1961648769a2bc7fffb01b6fbd587023a75dc86aac81ca306e02b1e8",
        ),
        (
            "61",
            ("--method", "FST_MAR"),
            "f8c4d30d35afb914192e576db91abc87900ed6ef1245d1d37eb845ad30ebf3c8",
            "91dbc610c506399cda782ac42f3e1f76091e6719730baa64891eda7ef0e1157e",
        ),
        (
            "60",
            ("--method", "FST_PRJ", "--location", "mean"),
            "5ed25a86bd14426129b61db9d6f48538653440d173634457a1175914e8925745",
            "757f935729c60a08c3156ef36515a3ffd62f9c9607540d2c165f39cf2640e436",
        ),
    ],
    ids=["FST_PRJ-odd-n", "FST_MAR-odd-n", "FST_PRJ-mean"],
)
def test_detect_outputs_are_pinned_at_odd_n_and_mean_location(
    tmp_path, n, options, flags_sha, indices_sha
):
    # recorded while the pointwise median was still np.median
    assert detect_digests(tmp_path, *options, n=n) == {
        "flags.csv": flags_sha,
        "indices.csv": indices_sha,
    }


@pytest.mark.parametrize(
    "model, alpha, data_sha, truth_sha",
    [
        ("M0", "0.25",
         "5cb732655b0b1e065cbccbb5c4580a4d7e1e99d362a97859ffbf35f3a748b7e5",
         "7f43b164e3966ae5b17df1996db92c76d513670e96dbb0eae68713b5c7df5de6"),
        ("M1", "0.25",
         "b25671f92a00eff1879b8e393c60045d7a79857702f7c3535bbd9f9205e08937",
         "72f807d708c1ce7ebe246f86407c6b95f8b5eff56ce2d44733eea3d6ab46a249"),
        ("M2", "0.25",
         "f6d904dc0b4ef7ff55a6bcaee000b2b0ad89f1b47e5de12684ba728e852a2ab4",
         "8b016c2c9afdfaee19d312c803d0520d71d4fdc5a20834d1c39f8f518b917ec3"),
        ("M3", "0.25",
         "7d6ab2c7640b3b2932fe4f958272980135fad8ebb07e8106a62aebe601e5a148",
         "cfbcb8ddea3fcf9e82b44fe6f54f918df31986109aa23ffd78a9238f9b3b0043"),
        ("M4", "0.25",
         "d1fb95ce04f3252245164696145817df0c808981ef7e7e5ff0b09355b22c5153",
         "7a8237effc599a51b322b173557d6aa28e2ed4c173be7d238ebb02f4892c08c5"),
        ("M5", "0.25",
         "4e05241667c3897c8a30be946da19874ec2756c50255d29c327247330f63104d",
         "ea6eab0275fab08bcf06f93129b3c2246d3b2ca0570a6a9fc6f19544cd6dc784"),
        ("M6", "0.25",
         "6341cf791f6753d30149ae8305c1354163639b5d9e07249f9685c651d7b99933",
         "cfbcb8ddea3fcf9e82b44fe6f54f918df31986109aa23ffd78a9238f9b3b0043"),
        ("M1_2", "0.25",
         "738ca73606fd76848542c83b7371f80d95e5ae650a7c51d6340a592405a72139",
         "72f807d708c1ce7ebe246f86407c6b95f8b5eff56ce2d44733eea3d6ab46a249"),
        ("M2_2", "0.25",
         "04cf1e31a850f48c49caf429876be81aedfe04a4b7d911d59cc5b5bcf3f0fc10",
         "8b016c2c9afdfaee19d312c803d0520d71d4fdc5a20834d1c39f8f518b917ec3"),
        ("M2_3", "0.25",
         "4fcc488004210a8d5e4aabce1a6397b3dbc403bd114fabe53ef36d76cb7bdfaf",
         "8b016c2c9afdfaee19d312c803d0520d71d4fdc5a20834d1c39f8f518b917ec3"),
        ("M3_2", "0.25",
         "acc4924882e55b9527d905a6c57b75aaa4f6e6d58a908851926c911832158c8a",
         "cfbcb8ddea3fcf9e82b44fe6f54f918df31986109aa23ffd78a9238f9b3b0043"),
        ("M3_3", "0.25",
         "038b89676fcc22d3f04114e3334eef7e2ab8d8986a64353b85ed36cb1874687c",
         "cfbcb8ddea3fcf9e82b44fe6f54f918df31986109aa23ffd78a9238f9b3b0043"),
        ("M5_2", "0.25",
         "6581597d57192e86468220a189b89d23ccf85759e7f31e18e905e920f71b441a",
         "ea6eab0275fab08bcf06f93129b3c2246d3b2ca0570a6a9fc6f19544cd6dc784"),
        ("M4", "0",
         "ca34b5c021360c1b5478142c9190328841c530c7d24866aa42a495d657fad526",
         "7f43b164e3966ae5b17df1996db92c76d513670e96dbb0eae68713b5c7df5de6"),
        ("M4", "1.0",
         "642a2c8e55cd4fd05f12ccb16bacf99bf659935122b16199bc3d9c30f44537b0",
         "29c57f0e75781c4764c74a324dac077afcbd184f44b9abd6e99713e3d34dd733"),
        ("M6", "0",
         "22355c117d93caf68cbac6dd2efb5c82388e1929c0b8c2d55ccafc7df8bfe71e",
         "7f43b164e3966ae5b17df1996db92c76d513670e96dbb0eae68713b5c7df5de6"),
        ("M6", "1.0",
         "152c11afacea47cf2355417fe3382ad8b84efbd06cf1edb69de2b248a25bccf7",
         "29c57f0e75781c4764c74a324dac077afcbd184f44b9abd6e99713e3d34dd733"),
    ],
)
def test_simulate_outputs_are_pinned(tmp_path, model, alpha, data_sha, truth_sha):
    # recorded while each model still contaminated its outliers one by one
    out = tmp_path / "sim"
    assert run(
        "simulate", "--model", model, "--n", "12", "--k", "15", "--alpha", alpha,
        "--seed", "2", "--out", str(out),
    ) == 0
    assert {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("data.csv", "truth.csv")
    } == {"data.csv": data_sha, "truth.csv": truth_sha}


def test_detect_explicit_taus(tmp_path):
    out = simulate_into(tmp_path)
    det = tmp_path / "det"
    assert run(
        "detect", "--input", str(out / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ1", "--tau-shape", "0.5", "--tau-amplitude", "0.4",
        "--tau-magnitude", "0.4", "--out", str(det),
    ) == 0
    report = json.loads((det / "report.json").read_text())
    assert report["thresholds"]["shape"] == 0.5


def test_benchmark_command(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run(
        "benchmark", "--model", "M0,M1", "--method", "FST_PRJ1", "--reps", "2",
        "--n", "30", "--k", "15", "--directions", "10", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "M0" in printed and "M1" in printed
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    reps = (out / "reps.csv").read_text().strip().splitlines()
    assert len(reps) == 1 + 4


def benchmark_digests(tmp_path, *options):
    out = tmp_path / "bench"
    assert run("benchmark", *options, "--out", str(out)) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("summary.csv", "reps.csv")
    }


@pytest.mark.parametrize(
    "options, summary_sha, reps_sha",
    [
        (
            ("--model", "M0,M1", "--method", "FST_MAR,FST_PRJ,FST_PRJ2",
             "--reps", "6", "--n", "60", "--k", "30", "--seed", "5"),
            "0218d92dac3b222042723ffe6a029a1c968b64ea3905b1b45339a55fda6403de",
            "1c2a8f82fb07b89ec1d392a29a5bb26f8380039f7fbaef2131199d7d93dfe9a0",
        ),
        (
            ("--model", "M1,M2_2", "--method", "FST_MAR,FST_STR,FST_PRJ,FST_PRJ1,FST_PRJ2",
             "--reps", "4", "--n", "50", "--k", "20", "--seed", "3"),
            "7585e150ff03b4ccb1df7b86afe2e5e719cf2ced00960744c0c17d00e926d8ab",
            "94fb7ef60b1d9b2570a6e21e45dabd934c339ce9a79d8c210e76d2c6c268f270",
        ),
    ],
    ids=["three-methods", "all-methods"],
)
def test_benchmark_outputs_are_pinned(tmp_path, options, summary_sha, reps_sha):
    # recorded when every projection method collected its own votes
    assert benchmark_digests(tmp_path, *options) == {
        "summary.csv": summary_sha,
        "reps.csv": reps_sha,
    }


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "method, report_sha",
    [
        ("FST_MAR", "ce0b3ecd9b0dd26302f760de5eb72a55bfa3ded95dc364d10cc218dca4091e44"),
        ("FST_STR", "909dff8d7b1c20c3ae59d343871e5a66be78588d080301fd005b50cba9f7e954"),
        ("FST_PRJ", "047df7ef8332625a181448c562872bc7f187e82285b032c7486c21cae8ef05d8"),
        ("FST_PRJ1", "ec06b84d45384851146dc7865dbb8170d5fb064bbb712ebf43c037798f4b5065"),
        ("FST_PRJ2", "f9647307cbedff5d30dc83dcdb3ed5ee3346d302935b1c411e21ecbc6c442792"),
    ],
)
def test_report_json_is_pinned(tmp_path, monkeypatch, method, report_sha):
    # run from tmp_path with a relative --input, so the echoed path is fixed
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--model", "M3", "--n", "60", "--k", "30", "--seed", "11",
               "--out", "sim") == 0
    assert run("detect", "--input", "sim/data.csv", "--layout", "long_multivariate",
               "--method", method, "--seed", "4", "--out", "det") == 0
    assert sha256_of("det/report.json") == report_sha


def test_fallback_report_json_is_pinned(tmp_path, monkeypatch):
    # no vote excess on this M0 sample: every type falls back, ratios are null
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--model", "M0", "--n", "40", "--k", "20", "--seed", "24",
               "--out", "sim") == 0
    assert run("detect", "--input", "sim/data.csv", "--layout", "long_multivariate",
               "--method", "FST_PRJ", "--directions", "20", "--seed", "4", "--out", "det") == 0
    selection = json.loads(Path("det/report.json").read_text())["thresholds"]["selection"]
    assert selection["branches"] == ["fallback"] * 3
    assert selection["ratios"] == [None] * 3
    assert sha256_of("det/report.json") == (
        "f1e7e1292f958f92e2a82cfea3c0748688356bf87558cd1a36823786387c7f6e"
    )


@pytest.mark.parametrize(
    "model, sweep_sha",
    [
        ("M1", "1d3db26f2b25a6b00a262b28cba2afaf7a90d854ee6f86da9af49096ee3f56f2"),
        # no true outliers: the f1 cells are empty
        ("M0", "7d925cad40997bfe9ffdff86a1c498334bd48703bff0eb560cfe28792db5fe14"),
    ],
)
def test_sweep_csv_is_pinned(tmp_path, model, sweep_sha):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "--model", model, "--shares", "0.3,0.4:0.3:0.3", "--reps", "3",
        "--n", "30", "--k", "15", "--directions", "10", "--seed", "5", "--out", str(out),
    ) == 0
    assert sha256_of(out / "sweep.csv") == sweep_sha


def test_baselines_json_is_pinned(tmp_path):
    out = tmp_path / "rates"
    assert run(
        "baselines", "--reps", "2", "--n", "30", "--k", "15", "--directions", "10",
        "--seed", "9", "--out", str(out),
    ) == 0
    assert sha256_of(out / "baselines.json") == (
        "93d93d3388a2a9135f1fce6fd9b010944acb9e868f62754eda30f6c11910849a"
    )


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        "sweep", "--model", "M1", "--shares", "0.3,0.4:0.3:0.3", "--reps", "2",
        "--n", "30", "--k", "15", "--directions", "10", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_baselines_command_round_trips(tmp_path):
    out = tmp_path / "rates"
    assert run(
        "baselines", "--reps", "2", "--n", "30", "--k", "15", "--directions", "10",
        "--seed", "9", "--out", str(out),
    ) == 0
    rates = read_baselines(out / "baselines.json")
    assert 0.0 <= rates.union < 1.0

    det = tmp_path / "det"
    sim = simulate_into(tmp_path)
    assert run(
        "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ", "--baselines", str(out / "baselines.json"),
        "--out", str(det),
    ) == 0


def test_detect_reads_baselines_with_utf8_bom(tmp_path):
    given = {"shape": 0.1, "amplitude": 0.02, "magnitude": 0.03, "union": 0.12}
    rates = tmp_path / "baselines.json"
    rates.write_bytes(b"\xef\xbb\xbf" + json.dumps(given).encode())
    sim = simulate_into(tmp_path)
    assert run(
        "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ", "--baselines", str(rates), "--out", str(tmp_path / "det"),
    ) == 0
    report = json.loads((tmp_path / "det" / "report.json").read_text())
    assert report["thresholds"]["selection"]["baselines"] == given


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run("--version")
    assert err.value.code == 0
    assert "fmuod" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# determinism


def test_simulate_twice_is_byte_identical(tmp_path):
    a = simulate_into(tmp_path / "a")
    b = simulate_into(tmp_path / "b")
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()


def test_detect_twice_is_byte_identical(tmp_path):
    sim = simulate_into(tmp_path)
    outs = []
    for name in ("x", "y"):
        det = tmp_path / name
        assert run(
            "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
            "--method", "FST_PRJ", "--directions", "15", "--seed", "2",
            "--out", str(det),
        ) == 0
        outs.append(det)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "flags.csv").read_bytes() == (outs[1] / "flags.csv").read_bytes()


# ---------------------------------------------------------------------------
# failure modes


def test_missing_input_exits_parse(tmp_path, capsys):
    code = run(
        "detect", "--input", str(tmp_path / "absent.csv"), "--layout", "wide_univariate",
        "--method", "FST_MAR", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_malformed_input_exits_parse(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,oops,6\n")
    code = run(
        "detect", "--input", str(bad), "--layout", "wide_univariate",
        "--method", "FST_MAR", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_partial_tau_flags_exit_config(tmp_path, capsys):
    sim = simulate_into(tmp_path)
    code = run(
        "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_PRJ1", "--tau-shape", "0.5", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "--tau-" in capsys.readouterr().err


def test_taus_rejected_for_non_fixed_methods(tmp_path):
    sim = simulate_into(tmp_path)
    code = run(
        "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_MAR", "--tau-shape", "0.5", "--tau-amplitude", "0.4",
        "--tau-magnitude", "0.4", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("delimiter", [";;", ""], ids=["two-chars", "empty"])
def test_detect_rejects_delimiter_that_is_not_one_character(tmp_path, capsys, delimiter):
    sim = simulate_into(tmp_path)
    code = run(
        "detect", "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
        "--method", "FST_MAR", "--delimiter", delimiter, "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "delimiter must be a single character" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_unusable_output_directory_exits_config(tmp_path, capsys, command):
    sim = simulate_into(tmp_path)
    existing_file = tmp_path / "file"
    existing_file.write_text("")
    if command == "simulate":
        args = ["--model", "M1", "--n", "20", "--k", "10", "--out", str(existing_file)]
    else:
        args = [
            "--input", str(sim / "data.csv"), "--layout", "long_multivariate",
            "--method", "FST_MAR", "--out", str(existing_file / "sub"),
        ]
    assert run(command, *args) == EXIT_CONFIG
    assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["abc", None], ids=["text", "null"])
@pytest.mark.parametrize("command", ["detect", "benchmark"])
def test_non_numeric_baseline_rate_exits_config(tmp_path, capsys, command, rate):
    rates = tmp_path / "baselines.json"
    rates.write_text(
        json.dumps({"shape": rate, "amplitude": 0.01, "magnitude": 0.01, "union": 0.09})
    )
    if command == "detect":
        sim = simulate_into(tmp_path)
        args = ["--input", str(sim / "data.csv"), "--layout", "long_multivariate"]
    else:
        args = ["--model", "M1", "--reps", "1"]
    code = run(
        command, *args, "--method", "FST_PRJ", "--baselines", str(rates),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "baseline rates must be numbers" in capsys.readouterr().err


def test_baseline_rate_too_large_for_a_float_exits_config(tmp_path, capsys):
    rates = tmp_path / "big.json"
    rates.write_text(
        '{"shape": 1' + "0" * 400 + ', "amplitude": 0.01, "magnitude": 0.01, "union": 0.09}'
    )
    code = run(
        "benchmark", "--model", "M1", "--method", "FST_PRJ", "--reps", "1",
        "--baselines", str(rates), "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "baseline rates must lie in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("benchmark", "--model", "M1", "--method", "FST_MAR", "--reps", "1", "--n", "1" + "0" * 400),
     ("benchmark", "--model", "M0", "--method", "FST_MAR", "--reps", "1", "--n", str(2**62)),
     ("simulate", "--model", "M1", "--k", "1" + "0" * 400),
     ("simulate", "--model", "M0", "--n", str(2**62)),
     # directions x 3 components
     ("detect", "--method", "FST_PRJ", "--directions", str(10**19)),
     ("detect", "--method", "FST_PRJ1", "--directions", str(2**62)),
     ("benchmark", "--model", "M1", "--method", "FST_PRJ", "--reps", "1", "--n", "20", "--k", "10",
      "--directions", str(2**62)),
     ("sweep", "--model", "M1", "--reps", "1", "--n", "20", "--k", "10",
      "--directions", str(10**19)),
     ("baselines", "--reps", "1", "--n", "20", "--k", "10", "--directions", str(2**62))],
    ids=["benchmark_huge_n", "benchmark_m0_n_2_62", "simulate_huge_k", "simulate_m0_n_2_62",
         "detect_directions_1e19", "detect_directions_2_62", "benchmark_directions_2_62",
         "sweep_directions_1e19", "baselines_directions_2_62"],
)
def test_sizes_numpy_cannot_index_exit_config(tmp_path, capsys, argv):
    # every size here fails in validation; none is ever allocated
    if argv[0] == "detect":
        data = simulate_into(tmp_path, n="20", k="10") / "data.csv"
        argv = (*argv, "--input", str(data), "--layout", "long_multivariate")
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert "exceed what a numpy array can index" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, code",
    [(ParseError, 2), (InvalidConfig, 3), (InvalidCurve, 4), (InsufficientData, 4),
     (DegenerateReference, 4), (InvalidDirection, 4)],
)
def test_each_package_error_exits_with_its_readme_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(args):
        raise error("the message")

    monkeypatch.setattr(fmuod.cli, "cmd_simulate", fail)
    assert run("simulate", "--model", "M0", "--out", str(tmp_path / "out")) == code
    assert capsys.readouterr().err == "error: the message\n"


def test_an_undefined_fpr_is_printed_as_a_dash_and_written_empty(tmp_path, capsys):
    # --alpha 1.0 makes every curve an outlier, so FPR has no inliers to count
    small = ("--model", "M1", "--alpha", "1.0", "--reps", "2", "--n", "20", "--k", "10")
    assert run("benchmark", *small, "--method", "FST_MAR", "--out", str(tmp_path / "b")) == 0
    assert run("sweep", *small, "--shares", "0.4", "--directions", "5",
               "--out", str(tmp_path / "s")) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].split()[-2] == "-"  # the benchmark table's fpr column
    assert printed[4].split()[-1] == "-"  # the sweep table's fpr column
    for written in ("b/summary.csv", "b/reps.csv", "s/sweep.csv"):
        assert "nan" not in (tmp_path / written).read_text()


def test_unknown_model_exits_config(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("simulate", "--model", "M99", "--out", str(tmp_path / "out"))
    assert err.value.code == EXIT_CONFIG


def test_missing_required_flag_exits_config(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("detect", "--input", "x.csv", "--out", str(tmp_path / "o"))
    assert err.value.code == EXIT_CONFIG


def test_bad_sweep_shares_exit_config(tmp_path):
    code = run(
        "sweep", "--model", "M1", "--shares", "0.4:0.3", "--reps", "1",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG


def test_constant_data_exits_degenerate(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("1,1,1\n1,1,1\n1,1,1\n1,1,1\n")
    code = run(
        "detect", "--input", str(flat), "--layout", "wide_univariate",
        "--method", "FST_MAR", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DEGENERATE
    assert "constant" in capsys.readouterr().err


def test_constant_component_exits_degenerate(tmp_path, capsys):
    values = np.random.default_rng(3).standard_normal((10, 6, 2))
    values[:, :, 1] = 0.5
    path = tmp_path / "data.csv"
    write_long_csv(MultivariateFunctionalDataset(values), path)
    code = run(
        "detect", "--input", str(path), "--layout", "long_multivariate",
        "--method", "FST_MAR", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DEGENERATE
    assert "error: reference curve is constant" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["FST_MAR", "FST_STR", "FST_PRJ"])
def test_overflowing_index_values_exit_degenerate(tmp_path, capsys, method):
    # curve 5 is finite, but its grid mean (and every projection of it)
    # overflows
    values = np.random.default_rng(0).standard_normal((20, 10, 2))
    values[5] = 1.7e308
    path = tmp_path / "data.csv"
    write_long_csv(MultivariateFunctionalDataset(values), path)
    code = run(
        "detect", "--input", str(path), "--layout", "long_multivariate",
        "--method", method, "--emit-indices", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_overflowing_minmax_range_exits_degenerate(tmp_path, capsys):
    # both curves are finite, but the pooled range of every component is not
    values = np.random.default_rng(0).standard_normal((20, 10, 2))
    values[5] = 1.7e308
    values[6] = -1.7e308
    path = tmp_path / "data.csv"
    write_long_csv(MultivariateFunctionalDataset(values), path)
    code = run(
        "detect", "--input", str(path), "--layout", "long_multivariate",
        "--method", "FST_STR", "--scale", "minmax", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("error: component 0 ") and err.count("\n") == 1


def test_benchmark_unknown_model_exits_config(tmp_path):
    code = run(
        "benchmark", "--model", "M99", "--method", "FST_MAR", "--reps", "1",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "models, methods",
    [("M1,M99", "FST_PRJ"), ("M1", "FST_MAR,BOGUS")],
    ids=["unknown-model", "unknown-method"],
)
def test_benchmark_checks_every_model_and_method_before_running(
    tmp_path, monkeypatch, capsys, models, methods
):
    calls = []
    monkeypatch.setattr(fmuod.benchmark, "run_benchmark", lambda *a, **kw: calls.append(a))
    code = run(
        "benchmark", "--model", models, "--method", methods, "--reps", "40",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert calls == []
    assert "unknown" in capsys.readouterr().err


NUMPY_MA_PROBE = textwrap.dedent(
    """
    import sys
    from fmuod.benchmark import METHODS, MethodConfig, run_benchmark
    from fmuod.cli import main

    out = sys.argv[1]
    assert main(["simulate", "--model", "M3", "--n", "24", "--k", "12", "--seed", "1",
                 "--out", out + "/sim"]) == 0
    for method in METHODS:
        assert main(["detect", "--input", out + "/sim/data.csv", "--layout",
                     "long_multivariate", "--method", method, "--directions", "6",
                     "--emit-indices", "--out", out + "/" + method]) == 0
        run_benchmark("M1", MethodConfig(method, n_directions=6), 2, n=24, k=12)
    print("numpy.ma" in sys.modules)
    """
)


def test_detect_and_benchmark_do_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, and it stays resident once imported; a
    # fresh interpreter shows whether fmuod's own calls pull it in.
    src = str(Path(fmuod.benchmark.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
