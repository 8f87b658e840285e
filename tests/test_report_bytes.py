"""Golden report bytes: the CLI's reports on small generated scenarios.

Each digest in DIGESTS is the sha256 of a command's output on a 200 x 8
scenario of the bench solver family (seed 1, half the instances
optimization ones, with trajectories), or of the runs and trajectory files
``gen`` writes for that scenario. SEED_DIGESTS pins every command's default
text and JSON output on the 60 x 8 scenario of the pairwise benchmark
workload at bench seeds 1-3. CLOSE_DIGESTS pins score's par and closed-gap
report on CLOSE_RUNS, a file whose single best solver is within 1% of the
virtual best, with and without folds, so the baselines and warnings blocks
and the warnings' fold tags are covered. A change meant to keep reports byte-identical
must keep every digest; a change meant to alter a report must update its
digest on purpose.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from test_fold_columns import bench_family_spec

from solvereval import emit_scenario, generate
from solvereval.cli import main

CV_METRICS = (
    "par", "runtime", "solved-count", "normalized-runtime", "speedup",
    "closed-gap", "ratio", "area", "bounded-reward",
)
METRIC_FLAGS = tuple(f for m in CV_METRICS for f in ("--metric", m))
DELTAS = ",".join(f"{k / 10:g}" for k in range(21))

COMMANDS = {
    "score-json": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                   "--format", "json", *METRIC_FLAGS, "-o", "out"),
    "score-csv": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                  "--format", "csv", *METRIC_FLAGS, "-o", "out"),
    "score-table": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                    "--format", "table", *METRIC_FLAGS, "-o", "out"),
    "score-stdout": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                     "--format", "table", *METRIC_FLAGS),
    "rank-mznc": ("rank", "runs.csv", "--timeout", "100", "--metric", "mznc"),
    "rank-mznc-json": ("rank", "runs.csv", "--timeout", "100", "--metric", "mznc",
                       "--format", "json"),
    "sweep-delta-flip": ("sweep-delta", "runs.csv", "--timeout", "100", "--deltas", DELTAS,
                         "--flip", "s04,s00", "--format", "json"),
    "sweep-delta-flip-text": ("sweep-delta", "runs.csv", "--timeout", "100", "--deltas", DELTAS,
                              "--flip", "s04,s00"),
    "validate": ("validate", "runs.csv", "--timeout", "100"),
    "head2head-json": ("head2head", "runs.csv", "--timeout", "100", "--format", "json"),
    "head2head-text": ("head2head", "runs.csv", "--timeout", "100"),
    "runtime-dist-json": ("runtime-dist", "runs.csv", "--timeout", "100", "--format", "json"),
    "runtime-dist-text": ("runtime-dist", "runs.csv", "--timeout", "100"),
}

DIGESTS = {
    "score-json": "10c328157752347ae0d4ce7bd8ebbc4bffd8717ab5b6e9fd42f0c2c99e5df11d",
    "score-csv": "2c9421820cd7ff3aa8437927c694556ad339f6d5acf7acf4038d05ffbb5f97c5",
    "score-table": "abea91e3cdc3247e51fa53739c6f23af4b0c96bb6ba330356d0afb015cc2dfc0",
    "score-stdout": "abea91e3cdc3247e51fa53739c6f23af4b0c96bb6ba330356d0afb015cc2dfc0",
    "rank-mznc": "8e38d6fd57ac7fd15885ef6691617b04b53cb14dd8c9f06ef2c3e283366065de",
    "rank-mznc-json": "a91d9757bfeea38b417e2bf4bb7defb36a85b2135fe28dab864e39c17d5bfe13",
    "sweep-delta-flip": "2332bd00c562e2c93524efc08195d96885a6361b265aff8f14a874ab2d3cbc2c",
    "sweep-delta-flip-text": "e2ba546302a5f9613788cd0c38e6da8e4c5b61ff3b5708b10de408370d296a2d",
    "validate": "9fe9293d22ca8260f674ef4cb5a38c23b31b9e4a0d3d13e92edb80b6839206fb",
    "head2head-json": "12d64571eed89ad9f84ddd587b4ecd5e0b40424e0e88ac33caf29bb9ff857421",
    "head2head-text": "c0e02ebadee34fbdb3bffbb1b2acfc12bf76dc302a9209eb7c5a57ad4df8c006",
    "runtime-dist-json": "b24e14bc777f77419b6a57f75d40580f97c80e584f006642211a4488d35a3e90",
    "runtime-dist-text": "11530948e1d6dbb9681bd47f575b9f2d2e1b3b5016c9dcc94da20dc1db925f55",
}

# Each command with its default format and with --format json, where it has one.
SEED_COMMANDS = {
    "score-table": ("score",),
    "score-json": ("score", "--format", "json"),
    "rank-text": ("rank",),
    "rank-json": ("rank", "--format", "json"),
    "head2head-text": ("head2head",),
    "head2head-json": ("head2head", "--format", "json"),
    "sweep-delta-text": ("sweep-delta",),
    "sweep-delta-json": ("sweep-delta", "--format", "json"),
    "runtime-dist-text": ("runtime-dist",),
    "runtime-dist-json": ("runtime-dist", "--format", "json"),
    "validate": ("validate",),
}

SEED_DIGESTS = {
    "head2head-json@1": "97426ccb4236cc9fc3792caec5d9d3cc46a825e79f2505e5460014d8ce0af739",
    "head2head-text@1": "84d4d8cbee9a6e45a1f146b2bd964cc5e28d8d1c636871ee25a6208d28f5d9a0",
    "rank-json@1": "8f0cfd78b62fad3e439c0d64cbae3caa3e562f1f75fff15f685f2e9c4caccc77",
    "rank-text@1": "614cb0b72adf1b30c72c0cc7ee52c66022549401536a6b584cc2b1abadd01636",
    "runtime-dist-json@1": "8993086f920d34c5572d4c779e21d8a025519c60f6ef1a235394b2238c73a8d4",
    "runtime-dist-text@1": "e8a551371333fb0b15c8003f301b73ffa081457c199115be11835bfb35cfedcb",
    "score-json@1": "7ee06e7d421d02bc9eb2e9cd2dabd6212ed8d4a623fb4ae547fd08119337b035",
    "score-table@1": "ddc7c60370914c25fbc41ae5847be4b4a0d231f6c0559dc25af633caf39ef6dc",
    "sweep-delta-json@1": "b7b5cedb2b0fd0eef74440e08692fcfab4d5a932eea9bc51ef774084e7a0ae90",
    "sweep-delta-text@1": "ae278e054def6fbb8b8aa1ab924ecef09c4f3230cf98a05d4914203440538fc5",
    "validate@1": "5a9b4a7462332f53774fff73abf9241e7f501e822a9bb6e8639347c676ca7a51",
    "head2head-json@2": "d7915bea5846a3be35b8da1e67421866390b07b8a2e8cbfc885cef21cd05f811",
    "head2head-text@2": "ea2773cd788062afd126d96b381fc3cd62e3c1f55a912c3c21e19e01e85cc4e5",
    "rank-json@2": "64adeb6237872ba5d26215cef073656d6c23b3e3d88c65304a2fac341c5516a5",
    "rank-text@2": "17e8aa255671fc692bae467d00232bcf01acd2b51bf00fcd1f13bc61697901fb",
    "runtime-dist-json@2": "c6296bbda7cec0f303ee01ad1f629d929bea2e5f87384d21c92a72d56dfc3bf7",
    "runtime-dist-text@2": "e19d53d6d3246dddf428b0723743e517a754dba37a9a21d2a47e8bd84c6e600d",
    "score-json@2": "0bdcac8e902bb088edbf3dd00775dcf34a6d21f9cbdcaad0ad31010e338d8772",
    "score-table@2": "867bf3293294ab2e157ef3e402f674a4f9acdbca70132465d85e3d30d040dbea",
    "sweep-delta-json@2": "1d1dfdda5e116422c9de4069663dc124a15e53fa06ca7920459a6be69a69ca5f",
    "sweep-delta-text@2": "32f580a9351bcca9d1942415e3f2104163e39ee980e1bd0c7b808d050ff9e489",
    "validate@2": "41028a2dc7e908b2cfb5a52aef53d0162a5256ec927972be444629c8ef2915ec",
    "head2head-json@3": "a1f58b0054b6fd05965144ddec68f1f22dbc28734dfcb660c200bef1d5261688",
    "head2head-text@3": "be22a96046b3677f8dce44ecfb68e41fc32dfd37650e184cfe773b58578e48e6",
    "rank-json@3": "806c032171e6e5a6a5df9cbfb618b2b3061770b24c3c5859b0489840714c685b",
    "rank-text@3": "cc52104dfe2254fff2effb8245a9899db33ff7e15a56ff7a1a437e5a385bd785",
    "runtime-dist-json@3": "c5b1b970224fff03f94c6a358062d67d5632ee2f81d2b5d463d1e1aa0d30f0ca",
    "runtime-dist-text@3": "8df31f26484520f82f2a8cff777034c73c8dc4052c004fa6be392f3e561ce4c9",
    "score-json@3": "c91902ad2c2950558729489ac2a25881860a84533778a295604be21b763d6a20",
    "score-table@3": "8625ee373067661f4add525f1b6f3b98ea82b16e623b63580edf0156d3b62c33",
    "sweep-delta-json@3": "721715ca34dc73ab43da99e425bc0a350bb9f41965e5c140c3fe5740241d17a6",
    "sweep-delta-text@3": "527f31d20bfab7d0a5e5d584025919d0db6c21287452ac385c2ff4d5730adf79",
    "validate@3": "53be6b54728816c1aab0fc74b67ce1762d3620167b85a7638032003dee20a891",
}

# Per instance: a at t, one of b and c 0.05 s faster, the other 20 s slower. a
# is the single best solver on every split, 0.05 s per instance behind the
# virtual best, so every closed-gap cell of any fold plan scores and warns.
CLOSE_RUNS = "instance_id,solver_id,status,time_s\n" + "".join(
    f"i{k:02d},a,ok,{10 + 3 * k:.3f}\n"
    f"i{k:02d},b,ok,{10 + 3 * k + (-0.05 if k % 2 else 20):.3f}\n"
    f"i{k:02d},c,ok,{10 + 3 * k + (20 if k % 2 else -0.05):.3f}\n"
    for k in range(12)
)

CLOSE_FLAGS = {"": (), "-folds2": ("--folds", "2")}

CLOSE_DIGESTS = {
    "table": "4c30ba49d9ed9e7537ae178ff0c6456952d1abe8bd6619b26dfe3da9432f4a08",
    "table-folds2": "b026ce0f66ffe073b307037c81f520e01349c7e8430946f108479eced2be6c94",
    "csv": "27b023c39a4509baecbff64ba492825671b45c8ee97d0a4038c519de5b646aa7",
    "csv-folds2": "b4b3adbd5f2f9aea0a2e54694b6788ede17b6c9b8c3f79c2db1cb2285b0776b9",
    "json": "cf08e0ce0a973d60ba9c85066e8f2defa32d3369f30bea93870bbbc0c3684547",
    "json-folds2": "7b6b9bc6102a21a7e8a02dcbd261556b4d91272c1950ba4a8f710b0439d8cac0",
}

INVALID_DIGEST = "b5a7068040e13b69673a05a85b969dda9423270073563e9725367991466879d6"

GEN_DIGESTS = {
    "gen.csv": "7dcf1d4de0d219aa5e451ded2ec8cfe0986ea679f1ca3cd5800675630c7ea68e",
    "gen_trajectories.csv": "929da14ffb5ae00e0b8c1dab9037970c8d045cc026d47495f826f0fd9f394dcb",
}


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("golden")
    emit_scenario(generate(bench_family_spec(1, 200, 8, 0.5)), where / "runs.csv")
    return where


@pytest.fixture(scope="module")
def seed_dirs(tmp_path_factory) -> dict[int, Path]:
    dirs = {}
    for seed in (1, 2, 3):
        dirs[seed] = tmp_path_factory.mktemp(f"seed{seed}")
        emit_scenario(generate(bench_family_spec(seed, 60, 8, 0.3)), dirs[seed] / "runs.csv")
    return dirs


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_digest(name, scenario_dir, monkeypatch, capsys):
    # Reports name their runs file as given, so every command runs beside it.
    monkeypatch.chdir(scenario_dir)
    argv = COMMANDS[name]
    assert main(list(argv)) == 0
    out = Path("out").read_bytes() if argv[-2] == "-o" else capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(SEED_COMMANDS))
def test_seed_digest(name, seed, seed_dirs, monkeypatch, capsys):
    monkeypatch.chdir(seed_dirs[seed])
    command, *flags = SEED_COMMANDS[name]
    assert main([command, "runs.csv", "--timeout", "100", *flags]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SEED_DIGESTS[f"{name}@{seed}"]


@pytest.mark.parametrize("folds", sorted(CLOSE_FLAGS))
@pytest.mark.parametrize("fmt", ("table", "csv", "json"))
def test_close_baselines_digest(fmt, folds, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("close.csv").write_text(CLOSE_RUNS)
    assert main(["score", "close.csv", "--timeout", "100", "--metric", "par",
                 "--metric", "closed-gap", "--format", fmt, *CLOSE_FLAGS[folds]]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CLOSE_DIGESTS[f"{fmt}{folds}"]


def test_invalid_file_digest(scenario_dir, monkeypatch, capsys):
    # Every hundredth row of the golden runs file dropped: one missing run each.
    monkeypatch.chdir(scenario_dir)
    rows = Path("runs.csv").read_text().splitlines(keepends=True)
    Path("invalid.csv").write_text("".join(r for n, r in enumerate(rows) if n % 100 != 3))
    assert main(["validate", "invalid.csv", "--timeout", "100"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid: ")
    assert hashlib.sha256(err.encode()).hexdigest() == INVALID_DIGEST


def test_gen_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = bench_family_spec(1, 200, 8, 0.5)
    solver_flags = [
        flag
        for s in spec.solvers
        for flag in ("--solver", f"{s.name}:p={s.solve_probability!r},"
                     f"runtime=uniform({s.runtime.lo!r},{s.runtime.hi!r}),"
                     f"quality=uniform({s.objective_quality.lo!r},{s.objective_quality.hi!r})")
    ]
    assert main(["gen", "-o", "gen.csv", "--seed", "1", "--instances", "200", "--timeout", "100",
                 "--opt-fraction", "0.5", *solver_flags]) == 0
    assert capsys.readouterr().out == "gen.csv\ngen_trajectories.csv\n"
    for name, digest in GEN_DIGESTS.items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name
