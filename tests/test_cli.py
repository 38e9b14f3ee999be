import contextlib
import csv
import functools
import importlib.util
import inspect
import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import cli
from solitonlab.cli import _build_family, main
from solitonlab.families import canonical_family
from solitonlab.report import canonical_csv, canonical_json, flatten

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_jobs  # noqa: E402


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_singular_steady_passes(capsys):
    code, out = run(["verify", "--family", "singular-steady", "--s", "0.5:2.0",
                     "--samples", "64", "--tol", "1e-9"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["checks"]["codazzi"]["max_abs"] <= 1e-12


# Every row of the job catalogue (`cli_jobs.jobs()`) runs in-process, once: a
# section in the test named for it, the other rows in
# `test_cli_jobs_exit_as_the_contract_asks`.  Each exits as the contract
# asks; a row that exits 2 writes one error line, no warning and no report,
# and a label is classify's.  An open defect is a strict xfail naming the
# ROADMAP item that mends it, so that mending it fails the case until the
# row moves.
def check_job(argv: str, code: int, label, capsys):
    if code == 2:
        assert_exit_2_with_one_line(argv.split(), capsys)
        return
    got, out = run(argv.split(), capsys)
    assert got == code
    if label is not None:
        assert json.loads(out)["verdict"]["label"] == label


def runs(jobs, name=None):
    """The test that runs each of ``jobs`` by `check_job` in the directory
    of the samples files, with the id ``name(argv)`` where given."""
    @pytest.mark.parametrize("argv, code, label", [pytest.param(
        *job[:3], id=name and name(job.argv), marks=[pytest.mark.xfail(
            strict=True, reason=f"open defect, ROADMAP item {job.item}")] if job.item else [])
        for job in jobs])
    def test(argv, code, label, samples_dir, monkeypatch, capsys):
        monkeypatch.chdir(samples_dir)
        check_job(argv, code, label, capsys)
    return test


def refusals(jobs, ids=None):
    """The test that each of ``jobs``, rows of exit 2, exits 2 with one line."""
    @pytest.mark.parametrize("argv", [job.argv.split() for job in jobs], ids=ids)
    def test(argv, capsys):
        assert_exit_2_with_one_line(argv, capsys)
    return test


@pytest.fixture(scope="module")
def samples_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("samples")
    for name, rows in cli_jobs.SAMPLES_FILES.items():
        (path / name).write_text(json.dumps(rows))
    return path


REFUSED = (cli_jobs.USAGE_ERRORS, cli_jobs.DOMAIN_ERRORS, cli_jobs.NON_FINITE_NUMBERS,
           cli_jobs.ORACLE_GRID_ERRORS)
SECTIONS = REFUSED + (cli_jobs.SHORT_FIBERS, cli_jobs.KNOWN_DEFECTS)
test_usage_errors_exit_2 = refusals(cli_jobs.USAGE_ERRORS)
test_domain_errors_exit_2_with_one_line = refusals(cli_jobs.DOMAIN_ERRORS)
test_non_finite_numbers_exit_2_with_one_line = refusals(
    cli_jobs.NON_FINITE_NUMBERS, ["to-inf", "tol-nan", "lam-nan", "range-inf"])
test_oracle_grid_errors_exit_2_with_one_line = refusals(
    cli_jobs.ORACLE_GRID_ERRORS, ["one-node", "no-checked-node", "grid-outside-domain"])
test_oracle_centres_its_window_on_a_short_fiber_at_its_equator = runs(
    cli_jobs.SHORT_FIBERS, lambda argv: "-".join(argv.split()[2::2]))
test_known_defect_runs_exit_as_the_contract_asks = runs(cli_jobs.KNOWN_DEFECTS)
test_cli_jobs_exit_as_the_contract_asks = runs(
    job for job in cli_jobs.jobs() if not any(job in section for section in SECTIONS))


def test_the_catalogue_holds_each_argv_once_and_every_boundary_job_at_its_gated_exit():
    jobs = cli_jobs.jobs()
    assert len({job.argv for job in jobs}) == len(jobs)
    assert set(cli_jobs.boundary_jobs()) <= {(job.argv, job.exit) for job in jobs}
    assert {job.exit for section in REFUSED for job in section} == {2}


# The canonical solitons that the CLI can rescale, with lambda at c = 1:
# (c^2 g, f, lambda / c^2) is a soliton on c s; singular-steady (lambda = 0)
# is self-similar, and broken-product is the control that must keep failing.
HOMOTHETIC = {"product": -1.0, "gaussian": 1.0, "cylinder": 2.0, "singular-steady": None,
              "broken-product": None}


def homothetic_runs(c):
    """The verify and classify runs of each family in `HOMOTHETIC` on
    c * [0.5, 2], and the integrate runs from c to 2c at step c * 1e-3."""
    for family, lam in HOMOTHETIC.items():
        opts = [f"--family={family}"] + ([] if lam is None else [f"--lam={lam / c**2!r}"])
        yield ["verify", *opts, f"--s={0.5 * c!r}:{2.0 * c!r}"]
        if family != "broken-product":
            yield ["classify", *opts, f"--s={0.5 * c!r}:{2.0 * c!r}"]
        if _build_family(family, None).reduced is not None:
            yield ["integrate", *opts, f"--from={c!r}", f"--to={2.0 * c!r}",
                   f"--step={c * 1e-3!r}"]


def homothetic_verdicts(c, path):
    """(command, exit code, classify label, integrate branch) of each run of
    `homothetic_runs`."""
    verdicts = []
    for argv in homothetic_runs(c):
        code = main(argv + ["--out", str(path)])
        report = json.loads(path.read_text())
        verdicts.append((argv[0], code, report.get("verdict", {}).get("label"),
                         report.get("branch")))
    return verdicts


@functools.cache
def unit_verdicts(path):
    """`homothetic_verdicts` at c = 1, after checking that every run passes
    there but broken-product's."""
    verdicts = homothetic_verdicts(1.0, path)
    assert [code for _, code, _, _ in verdicts] == [
        1 if "--family=broken-product" in argv else 0 for argv in homothetic_runs(1.0)]
    return verdicts


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
def test_verdicts_do_not_depend_on_the_unit_of_length(tmp_path_factory, c):
    path = tmp_path_factory.getbasetemp() / "homothety_report.json"
    assert homothetic_verdicts(c, path) == unit_verdicts(path)


def test_verify_broken_product_fails_on_codazzi(capsys):
    code, out = run(["verify", "--family", "broken-product"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["checks"]["codazzi"]["max_abs"] > 1e-2
    assert report["checks"]["soliton"]["skipped"]


def test_integrate_endpoint(capsys):
    code, out = run(["integrate", "--family", "singular-steady",
                     "--from", "1", "--to", "2", "--step", "1e-3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["endpoint"]["a"] - 1.0 / 6.0) <= 1e-9
    assert report["branch"] == ["lambda-2a^2+ab"]


def test_integrate_csv_rows(capsys):
    code, out = run(["integrate", "--family", "product", "--lam", "-1",
                     "--from", "1", "--to", "1.02", "--step", "1e-3",
                     "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("s,a,b,fp,h")
    assert len(lines) == 22  # header + 21 states


def test_oracle_small_grid(capsys):
    code, out = run(["oracle", "--family", "cylinder", "--lam", "2",
                     "--nodes", "65"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["max_relative_deviation"] <= 1e-6


def test_classify_family(capsys):
    code, out = run(["classify", "--family", "product", "--lam", "-1"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"]["label"] == "Product_ii"


def test_classify_samples_file(tmp_path, capsys):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(cli_jobs.SAMPLES_FILES["distinct_samples.json"]))
    code, out = run(["classify", "--samples-file", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"]["label"] == "Unknown"


def test_job_file(tmp_path, capsys):
    spec = {"command": "verify", "family": "singular-steady",
            "s_range": [0.5, 2.0], "samples": 16, "tol": 1e-9}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    code, out = run(["job", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "product"], ["oracle", "--family", "cylinder", "--nodes", "33"],
    ["classify", "--family", "gaussian"], ["integrate", "--family", "product"],
], ids=lambda argv: argv[0])
def test_job_block_records_lam_when_given(argv, capsys):
    jobs = [json.loads(run(argv + lam, capsys)[1])["job"] for lam in ([], ["--lam=-0.5"], ["--lam=-2"])]
    assert "lam" not in jobs[0] and [job.pop("lam") for job in jobs[1:]] == [-0.5, -2.0]
    assert jobs[1:] == [jobs[0]] * 2


def assert_exit_2_with_one_line(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not caught  # a warning would be one more stderr line
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solitonlab: error: ")
    assert "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize("tol", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify", "integrate", "oracle", "classify"])
def test_tol_that_is_not_positive_exits_2_naming_it(command, tol, tmp_path, capsys):
    # the parser refuses it for every command, and so for a job file too
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": command, "family": "product", "tol": float(tol)}))
    for argv in ([command, "--family", "product", "--tol", tol], ["job", str(job)]):
        assert "--tol must be positive" in assert_exit_2_with_one_line(argv, capsys)


def test_oracle_names_the_arguments_of_a_too_coarse_grid(capsys):
    # the fiber's radial window 1 +- 4h must stay 10 spacings from r = 0, so
    # h <= 1/14: on --s 0.5:2 from 22 nodes on
    for argv in (["--nodes", "9"], ["--nodes", "21"], ["--s", "0.5:100"],
                 ["--s", "1e10:1.0000001e10"]):
        line = assert_exit_2_with_one_line(["oracle", "--family", "product", *argv], capsys)
        assert "--nodes" in line and "--s" in line
    # each end as given, though %g reads both as 1e+10
    assert "--s 1e+10:10000001000.0 " in line
    assert main(["oracle", "--family", "product", "--nodes", "22"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_oracle_names_the_lam_of_a_fiber_too_short_for_its_grid(capsys):
    # r0 = pi/20 at k = 100, less than 14 spacings of the default grid
    line = assert_exit_2_with_one_line(["oracle", "--family", "product", "--lam", "100"], capsys)
    assert all(flag in line for flag in ("--lam", "--nodes", "--s")), line


@pytest.mark.parametrize("argv", [
    ["--from", "1e-310"], ["--from", "1e-120", "--to", "1e-120"], ["--from", "1e-9", "--to", "1"],
    ["--from", "1e-9", "--to", "1e-9"],
], ids=["subnormal", "no-steps-overflowing", "blow-up-at-start", "no-steps"])
def test_integrate_refuses_a_start_outside_its_range_naming_the_bound(argv, capsys):
    # a = 1/(3s) is above 1e8 at each of these starts, infinite at the first
    line = assert_exit_2_with_one_line(["integrate", "--family", "singular-steady", *argv],
                                       capsys)
    assert "has a = " in line and line.endswith(", outside [-1e+08, 1e+08]"), line


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and "--samples" in capsys.readouterr().out


@pytest.mark.parametrize("argv, bound", [
    (["verify", "--family", "sphere", "--samples"], cli.MAX_SAMPLES),
    (["classify", "--family", "product", "--samples"], cli.MAX_SAMPLES),
    (["oracle", "--family", "sphere", "--nodes"], cli.MAX_NODES),
], ids=["verify", "classify", "oracle"])
@pytest.mark.parametrize("above", [1, 10**12], ids=["just-above", "far-above"])
def test_size_arguments_above_their_bound_are_refused_before_allocating(argv, bound, above,
                                                                       capsys):
    tracemalloc.start()
    try:
        line = assert_exit_2_with_one_line(argv + [str(bound + above)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"is more than {bound}" in line
    assert peak < 2**20


@pytest.mark.parametrize("lam", [None, 0.75])
@pytest.mark.parametrize("cli_name", cli_jobs.CLI_FAMILIES)
def test_cli_and_json_family_names_build_the_same_family(cli_name, lam):
    # a CLI name and the registry's underscore name build the same family
    from_cli = _build_family(cli_name, lam)
    from_registry = canonical_family(cli_name.replace("-", "_"), lam)

    def fields(m):
        sol = m.soliton and (m.soliton.lam, m.soliton.f.label)
        return (m.p is None, m.name, m.k, sol, m.domain, m.h.label, m.p and m.p.label,
                m.reduced is None)

    assert fields(from_cli) == fields(from_registry)
    default = {"product": -1.0, "gaussian": 1.0, "cylinder": 2.0}
    if cli_name in default:
        assert from_cli.soliton.lam == (default[cli_name] if lam is None else lam)


def load_bench(monkeypatch, name):
    """``bench/<name>.py``, loaded without a bytecode cache beside it."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    return load_bench(monkeypatch, "workloads")


def test_traced_counters_name_public_functions_and_count_the_samples(monkeypatch):
    tracing = load_bench(monkeypatch, "tracing")
    for key in tracing.COUNTERS:
        short, name = key.split(".")
        module = importlib.import_module(f"solitonlab.{short}")
        obj = getattr(module, name, None)
        # the functions that `Tracer.install` wraps, so that the counter runs
        assert short in tracing.MODULES and not name.startswith("_"), key
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, key
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["classify", "--family", "product", "--samples", "64"]) == 0
        assert main(["integrate", "--family", "singular-steady"]) == 0
    info = {span[3]: span[6] for span in tracer.spans}
    assert info["classify.sample_family"] == info["classify.classify"] == 64
    assert info["reduced.integrate"] == 1000  # the steps, s = 1 -> 2 at 1e-3


def test_integrate_exit_codes_follow_the_family_records_and_the_benchmark_gate(workloads,
                                                                               capsys):
    assert sorted(workloads.CLI_FAMILIES) == sorted(cli_jobs.CLI_FAMILIES)
    reduced = sorted(name for name in cli_jobs.CLI_FAMILIES if _build_family(name, None).reduced)
    refusal = ("solitonlab: error: integrate supports the families with reduced "
               f"data: {reduced}\n")
    for family in cli_jobs.CLI_FAMILIES:
        code = main(["integrate", "--family", family])
        assert code == workloads.default_exit("integrate", family), family
        assert capsys.readouterr().err == ("" if family in reduced else refusal), family


SAMPLE_ROW = {"s": 1.0, "eigenvalues": [1.0, 1.0, 1.0, 1.0], "fprime": 0.0,
              "scalar": 4.0, "weyl_sq": 0.0}
# lambda_2 != lambda_3 = lambda_4 with constant R != 2 lambda_3: a pair
# signature that is not a product, so the classifier reaches its steady test
PAIR_ROW = {"s": 1.0, "eigenvalues": [1.0, 0.8, 0.5, 0.5], "fprime": 1.0,
            "scalar": 2.8, "weyl_sq": 1.0}
BAD_FIELDS = [("fprime", None, SAMPLE_ROW), ("scalar", "x", SAMPLE_ROW),
              ("weyl_sq", None, SAMPLE_ROW), ("fprime", [1], SAMPLE_ROW),
              ("s", None, PAIR_ROW), ("s", True, SAMPLE_ROW),
              ("scalar", float("nan"), SAMPLE_ROW), ("eigenvalues", [1.0, 1.0, 1.0], SAMPLE_ROW),
              ("eigenvalues", [1.0, 1.0, 1.0, None], SAMPLE_ROW)]
# in place of a file's content: the path is a directory, or its parent is missing
DIRECTORY, NO_PARENT = "<directory>", "<no parent>"


@pytest.mark.parametrize("argv, content, names", [
    (["classify", "--samples-file"], [{k: v for k, v in SAMPLE_ROW.items()
                                       if k != "eigenvalues"}] * 8, None),
    (["classify", "--samples-file"], [SAMPLE_ROW] * 7 + [[1.0, 2.0]], None),
    (["classify", "--samples-file"], None, None),
    (["report", "--in"], None, None),
    (["report", "--in"], [1, 2, 3], None),
    (["verify", "--family", "flat", "--out"], DIRECTORY, "cannot write report"),
    (["verify", "--family", "flat", "--out"], NO_PARENT, "cannot write report"),
    (["job"], {"command": "verify", "family": "flat", "out": "."}, "cannot write report '.'"),
    (["job"], {"command": "oracle", "family": "flat", "nodes": 1e3},
     "invalid int value: '1000.0'"),
    (["classify", "--lam", "1", "--samples-file"], [SAMPLE_ROW] * 8, "--lam"),
] + [(["classify", "--samples-file"], [dict(row, **{key: value})] * 8, f"row 0: {key}")
     for key, value, row in BAD_FIELDS],
    ids=["row-missing-key", "row-not-object", "missing-samples-file",
         "missing-report", "report-not-object", "out-directory", "out-no-parent",
         "job-out-directory", "job-nodes-float", "lam-and-samples-file", "fprime-null",
         "scalar-string", "weyl_sq-null", "fprime-list", "s-null-pair", "s-bool", "scalar-nan",
         "three-eigenvalues", "eigenvalue-null"])
def test_bad_input_files_exit_2_with_one_line(argv, content, names, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content == NO_PARENT:
        path = tmp_path / "nosuch" / "input.json"
    elif content == DIRECTORY:
        path.mkdir()
    elif content is not None:
        path.write_text(json.dumps(content))
    line = assert_exit_2_with_one_line(argv + [str(path)], capsys)
    assert names is None or names in line  # the row and the key


@pytest.mark.parametrize("spaced, joined", [
    (["verify", "--family", "product", "--lam", "-1e-3"],
     ["verify", "--family", "product", "--lam=-1e-3"]),
    (["verify", "--family", "cylinder", "--s", "-1:1"],
     ["verify", "--family", "cylinder", "--s=-1:1"]),
    ({"command": "verify", "family": "cylinder", "s_range": [-1, 1]},
     ["verify", "--family", "cylinder", "--s=-1:1"]),
], ids=["lam", "s", "job"])
def test_negative_option_values_parse_as_their_equals_form(spaced, joined, tmp_path):
    want, got = tmp_path / "joined.json", tmp_path / "spaced.json"
    assert main(joined + ["--out", str(want)]) == 0
    if isinstance(spaced, dict):  # a job file
        job = tmp_path / "job.json"
        job.write_text(json.dumps(dict(spaced, out=str(got))))
        assert main(["job", str(job)]) == 0
    else:
        assert main(spaced + ["--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_bad_job_file_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("[1, 2, 3]")
    assert main(["job", str(path)]) == 2


@pytest.mark.parametrize("ends", [[0.5], [], [0.5, 1.0, 2.0]])
def test_job_range_without_two_ends_exits_2_with_one_line(ends, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "verify", "family": "cylinder", "s_range": ends}))
    assert "range must look like 0.5:2.0" in assert_exit_2_with_one_line(["job", str(path)],
                                                                         capsys)


@pytest.mark.parametrize("argv", [job.argv.split() for job in cli_jobs.DEFAULTS
                                  if job.exit != 2 and not job.item and "csv" not in job.argv])
def test_reports_are_byte_identical(argv, tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        main(argv + ["--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_parser_reuse_keeps_no_state_between_calls(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", refuse)  # main reuses the one it has
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["verify", "--family", "product", "--out", str(first)]) == 0
    assert main(["verify", "--family", "product", "--samples", "8", "--tol", "1e-3",
                 "--out", str(tmp_path / "other.json")]) == 0
    assert main(["verify", "--family", "nosuch"]) == 2
    assert main(["verify", "--no-such-option"]) == 2  # argparse's own usage error
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "classify", "family": "gaussian",
                               "samples": 16, "out": str(tmp_path / "job.out")}))
    assert main(["job", str(job)]) == 0
    assert main(["verify", "--family", "product", "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_report_roundtrip_command(tmp_path, capsys):
    first = tmp_path / "report.json"
    main(["verify", "--family", "flat", "--out", str(first)])
    code, out = run(["report", "--in", str(first)], capsys)
    assert code == 0
    assert out == first.read_text()
    code, out = run(["report", "--in", str(first), "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("key,value")


def test_canonical_json_formats_floats():
    text = canonical_json({"x": 0.1, "flag": True, "none": None})
    assert "0.10000000000000001" in text
    assert '"flag": true' in text
    assert sorted(json.loads(text)) == ["flag", "none", "x"]


def test_canonical_csv_flatten():
    obj = {"a": {"b": [1.5, 2]}, "c": "x,y"}
    rows = dict(flatten(obj))
    assert rows["a.b.0"] == "1.5"
    text = canonical_csv(obj)
    assert '"x,y"' in text


def test_report_csv_quotes_keys_and_line_breaks(tmp_path, capsys):
    obj = {"a,b": 1, "note": "l1\nl2", 'q"k': 2, "cr": "x\ry", "plain": "z"}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(obj))
    code, out = run(["report", "--in", str(path), "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["key", "value"]
    assert dict(rows[1:]) == {"a,b": "1", "note": "l1\nl2", 'q"k': "2", "cr": "x\ry",
                              "plain": "z"}


# Exit-code contract: boundary values of every option give exit 0, 1 or 2,
# never an escaping exception, and exit 2 one line on stderr.  Sizes stay
# small, or far above their bound, which refuses them before anything is
# allocated, so that no run builds a large grid or takes many RK4 steps;
# every number may be +-1e308, whose differences and products overflow float
# arithmetic, and --lam also 1e200.
NUMBERS = st.sampled_from(["0", "-0", "-1", "1", "2.5", "nan", "inf", "-inf", "x", "1e308",
                           "-1e308"])
RANGES = st.one_of(st.tuples(NUMBERS, NUMBERS).map(":".join),
                   st.sampled_from(["1", "1:2:3", ":"]))
COMMON = {"--lam": st.one_of(NUMBERS, st.just("1e200")), "--tol": NUMBERS}
OPTIONS = {
    "verify": {"--s": RANGES, "--samples": st.sampled_from(["-1", "0", "2", "3", "8", "1e3",
                                                            str(10**12)])},
    "classify": {"--s": RANGES, "--samples": st.sampled_from(["-1", "0", "4", "8",
                                                              str(10**12)])},
    "oracle": {"--s": RANGES, "--nodes": st.sampled_from(["-1", "0", "1", "8", "9", "17",
                                                          str(10**12)])},
    "integrate": {"--from": NUMBERS, "--to": NUMBERS, "--step": NUMBERS},
}
# mostly families the command can run, so that the values reach its code
FAMILIES = {command: cli_jobs.CLI_FAMILIES for command in OPTIONS}
FAMILIES["integrate"] = ["singular-steady", "product"]
BAD_FAMILIES = ["nosuch", "singular_steady", "", "gaussian"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    family = draw(st.one_of(st.sampled_from(FAMILIES[command]),
                            st.sampled_from(FAMILIES[command]),
                            st.sampled_from(BAD_FAMILIES), st.none()))
    argv = [command] + ([] if family is None else [f"--family={family}"])
    options = {**COMMON, **OPTIONS[command]}
    for flag in draw(st.lists(st.sampled_from(sorted(options)), min_size=1,
                              max_size=3, unique=True)):
        argv.append(f"{flag}={draw(options[flag])}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argv(), st.sampled_from(["contract_report.json", ".", "nosuch/report.json"]))
def test_cli_exit_contract_on_boundary_values(tmp_path_factory, argv, out):
    out, err = tmp_path_factory.getbasetemp() / out, io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    assert code != 2 or len(err.getvalue().splitlines()) == 1, err.getvalue()


# a job file's s_range as a list of JSON numbers, of any length
JOB_RANGES = st.lists(st.sampled_from([-1, 0, 0.5, 2.5]), max_size=3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["", "[1, 2]", "{}", '{"pass": false}', "{", "null"]),
       st.sampled_from(["verify", "oracle", "report", "nosuch", None]),
       st.dictionaries(st.sampled_from(["family", "lam", "tol", "s_range", "in"]),
                       st.one_of(NUMBERS, JOB_RANGES), max_size=3))
def test_report_and_job_exit_contract(tmp_path_factory, text, command, fields):
    path = tmp_path_factory.getbasetemp() / "contract_input.json"
    path.write_text(text)
    assert main(["report", "--in", str(path)]) in (0, 1, 2)
    spec = dict(fields, **({"in": str(path)} if command == "report" else {}))
    if command is not None:
        spec["command"] = command
    path.write_text(json.dumps(spec))
    assert main(["job", str(path)]) in (0, 1, 2)
