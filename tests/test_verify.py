"""Verification harness: suite behavior, report schema, determinism."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from importlib import resources

import jsonschema
import numpy as np
import pytest

from affinebv import ConfigError, GridFunction, make_quadrature, variation, verify
from affinebv.verify import (
    VerifyConfig,
    _record,
    check_affine_invariance,
    check_comparisons,
    check_huang_li,
    check_sobolev_zhang,
    check_superadditivity,
    check_wirtinger_gap,
    disk_domain,
    random_bumps,
    run_suite,
    square_domain,
)

from conftest import ellipse_domain, src_env


@pytest.fixture
def small_config(monkeypatch):
    """Builds small suite configs; the suites draw 5 maps per field."""
    monkeypatch.setattr(verify, "AFFINE_MAPS", 5)

    def make(**kw):
        return VerifyConfig(**{**dict(grid=64, dirs=64, n_fields=5), **kw})

    return make


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its growing call list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestIndividualChecks:
    def test_sobolev_zhang_disk_equality(self):
        spec, mask = disk_domain(128)
        quad = make_quadrature(2, 256)
        u = GridFunction(spec, mask.inside.astype(float))
        rec = check_sobolev_zhang([("disk", u)], mask, quad, "face-atoms",
                                  equality=True)
        assert rec.passed and rec.name == "sobolev_zhang_equality"
        assert rec.details["disk"] == pytest.approx(1.0, abs=0.05)

    def test_sobolev_zhang_ellipse_equality(self):
        spec, mask = ellipse_domain(128, np.diag([2.0, 0.5]))
        quad = make_quadrature(2, 256)
        u = GridFunction(spec, mask.inside.astype(float))
        rec = check_sobolev_zhang([("ellipse", u)], mask, quad, "face-atoms",
                                  equality=True)
        assert rec.passed
        assert rec.details["ellipse"] == pytest.approx(1.0, abs=0.05)

    def test_comparisons_pass(self):
        spec, mask = disk_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(0)
        fields = [(f"f{i}", u) for i, u in
                  enumerate(random_bumps(mask, 5, rng, signed=True))]
        rec = check_comparisons(fields, mask, quad)
        assert rec.passed
        assert rec.details["c2_worst"] <= 1e-12

    def test_superadditivity_pass(self):
        spec, mask = square_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(1)
        fields = [(f"f{i}", u) for i, u in
                  enumerate(random_bumps(mask, 3, rng, signed=True))]
        rec = check_superadditivity(fields, mask, quad)
        assert rec.passed

    def test_superadditivity_energy_calls(self, monkeypatch):
        # E(u) once per field, then E(T_h u) and E(R_h u) per level
        from affinebv import verify

        monkeypatch.setattr(verify, "SUPERADDITIVITY_LEVELS", 4)
        spec, mask = square_domain(64)
        quad = make_quadrature(2, 128)
        fields = [(f"f{i}", u) for i, u in enumerate(
            random_bumps(mask, 3, np.random.default_rng(1), signed=True))]
        calls = count_calls(monkeypatch, verify, "affine_energy_extended")
        rec = check_superadditivity(fields, mask, quad)
        assert rec.count == 3 * 4
        assert len(calls) == 3 * (1 + 2 * 4)

    def test_comparisons_build_each_atom_set_once(self, monkeypatch):
        # per field: extended and interior face-atom sums of u and of its
        # clamped copy, and one trace of u; no atom array is built
        from affinebv import energy, verify

        sums = count_calls(monkeypatch, energy, "face_atom_sums")
        atoms = count_calls(monkeypatch, energy, "compute_atoms")
        # calls that verify makes itself count too
        monkeypatch.setattr(verify, "compute_atoms", energy.compute_atoms)
        traces = count_calls(monkeypatch, verify, "extract_trace")
        _, mask = disk_domain(48)
        fields = [(f"f{i}", u) for i, u in enumerate(
            random_bumps(mask, 3, np.random.default_rng(0), signed=True))]
        rec = check_comparisons(fields, mask, make_quadrature(2, 32))
        assert rec.count == 3
        assert len(sums) == 3 * 4
        assert not atoms
        assert len(traces) == 3

    def test_wirtinger_gap_builds_each_atom_set_once(self, monkeypatch):
        # the sin(pi x) field and the negative control
        from affinebv import energy, verify

        atoms = count_calls(monkeypatch, energy, "compute_atoms")
        # calls that verify makes itself count too
        monkeypatch.setattr(verify, "compute_atoms", energy.compute_atoms)
        _, mask = square_domain(32)
        assert check_wirtinger_gap(mask, make_quadrature(2, 32)).passed
        assert len(atoms) == 2

    def test_superadditivity_trivial_level(self):
        from affinebv import affine_energy_extended, truncate

        spec, mask = square_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(2)
        (u,) = random_bumps(mask, 1, rng)
        h = float(np.max(np.abs(u.values))) + 1.0
        truncated, remainder = truncate(u, h)
        e = affine_energy_extended(u, mask, "face-atoms", quad)
        et = affine_energy_extended(truncated, mask, "face-atoms", quad)
        assert et.value == pytest.approx(e.value, rel=1e-12)
        assert not remainder.values.any()

    def test_affine_invariance_pass(self):
        spec, mask = disk_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(3)
        fields = [(f"f{i}", u) for i, u in
                  enumerate(random_bumps(mask, 2, rng))]
        rec = check_affine_invariance(fields, mask, quad, n_maps=10, seed=0)
        assert rec.passed
        assert rec.details["atom_worst"] <= 1e-3
        # the resample path runs for every field, never skipped, and
        # compares two different energies
        assert rec.details["resample_pairs"] == len(fields)
        assert 0 < rec.details["resample_worst"] <= verify.AFFINE_RESAMPLE_TOL

    def test_affine_invariance_reports_the_binding_path(self, monkeypatch):
        # worst_margin and tolerance come from the path with the smaller
        # slack, so a record passes exactly when worst_margin <= tolerance
        config = VerifyConfig(suites=("affine_invariance",))
        (rec,) = run_suite(config).records
        assert rec.passed and rec.worst_margin <= rec.tolerance
        assert rec.worst_margin == rec.details["atom_worst"]
        assert rec.tolerance == verify.AFFINE_ATOM_TOL
        monkeypatch.setattr(verify, "AFFINE_RESAMPLE_TOL", 1e-9)
        (rec,) = run_suite(config).records
        assert not rec.passed
        assert rec.worst_margin == rec.details["resample_worst"] > 1e-9
        assert rec.tolerance == rec.details["resample_tolerance"] == 1e-9
        assert rec.details["slack"] == 1e-9 - rec.worst_margin

    def test_affine_invariance_psi_calls_do_not_grow_with_maps(self, monkeypatch):
        # per field: Psi of u, one call for all its mapped atom sets, and
        # the two energies of the resample path
        from affinebv import energy

        _, mask = disk_domain(48)
        quad = make_quadrature(2, 32)
        fields = [(f"f{i}", u) for i, u in enumerate(
            random_bumps(mask, 2, np.random.default_rng(5)))]
        calls = count_calls(monkeypatch, energy, "psi_samples")
        per_run = []
        for n_maps in (5, 20):
            calls.clear()
            rec = check_affine_invariance(fields, mask, quad, n_maps, seed=0)
            assert rec.count == len(fields) * n_maps
            per_run.append(len(calls))
        assert per_run == [4 * len(fields)] * 2

    def test_affine_invariance_rank_tests_every_mapped_set(self, monkeypatch):
        # a mapped set whose covariance is rank deficient has energy 0
        # whatever its Psi, so each of its pairs deviates by the whole energy
        from affinebv import energy

        mapped = []
        transformed = variation.VariationAtoms.transformed

        def kept(self, T):
            mapped.append(transformed(self, T))
            return mapped[-1]

        ratio = energy.covariance_eigen_ratio
        monkeypatch.setattr(variation.VariationAtoms, "transformed", kept)
        monkeypatch.setattr(energy, "covariance_eigen_ratio", lambda atoms: (
            0.5 * energy.COV_EIGEN_EPS if any(atoms is m for m in mapped)
            else ratio(atoms)))
        _, mask = disk_domain(48)
        fields = [(f"f{i}", u) for i, u in enumerate(
            random_bumps(mask, 2, np.random.default_rng(5)))]
        rec = check_affine_invariance(fields, mask, make_quadrature(2, 32),
                                      n_maps=5, seed=0)
        assert rec.count == len(mapped) == 10
        assert not rec.passed
        assert rec.details["atom_worst"] == rec.worst_margin == 1.0

    def test_wirtinger_gap(self):
        _, mask = square_domain(64)
        rec = check_wirtinger_gap(mask, make_quadrature(2, 64))
        assert rec.passed
        assert rec.details["energy"] == 0.0
        assert rec.details["centered_l1"] > 0.15
        assert rec.details["control_energy"] > 0.0

    def test_huang_li_pass(self):
        spec, mask = disk_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(4)
        fields = [(f"f{i}", u) for i, u in
                  enumerate(random_bumps(mask, 2, rng))]
        rec = check_huang_li(fields, mask, quad)
        assert rec.passed
        for name, _ in fields:
            d = rec.details[name]
            assert d["f_best"] <= d["f_identity"] * (1 + 1e-12)


class TestRunSuite:
    def test_all_pass(self, small_config):
        report = run_suite(small_config())
        assert report.passed
        names = [r.name for r in report.records]
        for suite in ("comparisons", "superadditivity", "wirtinger_gap"):
            assert suite in names

    def test_default_suite_builds_five_stencils(self, monkeypatch, one_cpu):
        # two masks (disk and square) times two backends, plus the padded
        # box of the resample path: every other atom set of the suite,
        # about 980 of them, reuses its mask's stencil
        built = count_calls(monkeypatch, variation, "AtomStencil")
        report = run_suite(VerifyConfig())
        assert report.passed
        assert len(built) == 5
        counts = {r.name: r.count for r in report.records}
        assert counts["affine_invariance"] == 3 * verify.AFFINE_MAPS == 150

    @pytest.mark.parametrize("seed", [1175636404, 333288878])
    def test_resample_path_shares_one_support(self, seed):
        # at these suite seeds the resample path compared E(u o T) cut to
        # the disk with E(u) and reported 0.0234 and more against 0.02
        report = run_suite(VerifyConfig(seed=seed))
        rec = {r.name: r for r in report.records}["affine_invariance"]
        assert rec.passed, rec.details
        assert rec.count == 150 and rec.details["resample_pairs"] == 3

    def test_small_config_draws_fewer_maps(self, small_config):
        report = run_suite(small_config(suites=("affine_invariance",)))
        assert [r.count for r in report.records] == [3 * 5]

    @pytest.mark.parametrize("field", ["n_fields"])
    def test_negative_counts_rejected(self, small_config, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            small_config(**{field: -1})

    @pytest.mark.parametrize("suites", [("sobolev-zhang",), "huang_li",
                                        ("huang_li", "huang"), ()],
                             ids=["hyphen", "bare-string", "prefix", "empty"])
    def test_bad_suites_rejected(self, small_config, suites):
        # each would run no check, or not the one named, and pass
        with pytest.raises(ConfigError, match="unknown suite"):
            small_config(suites=suites)

    def test_empty_corpus_rejected(self, small_config):
        # the fixed corpora do not depend on n_fields; an empty random corpus
        # is refused rather than reported as checks that passed
        with pytest.raises(ConfigError, match="n_fields must be >= 1, got 0"):
            small_config(n_fields=0)

    def test_zero_norm_corpus_vacuous(self):
        _, mask = disk_domain(48)
        quad = make_quadrature(2, 32)
        zeros = [(f"z{i}", GridFunction.zeros(mask.spec)) for i in range(3)]
        records = [check_sobolev_zhang(zeros, mask, quad, "cell-gradient",
                                       equality=False),
                   check_superadditivity(zeros, mask, quad),
                   check_affine_invariance(zeros, mask, quad, n_maps=2, seed=0),
                   check_huang_li(zeros, mask, quad)]
        for rec in records:
            assert rec.count == 0 and rec.passed, rec.name
            assert rec.details["vacuous"] is True, rec.name
            assert rec.details["slack"] == 0.0, rec.name
            assert rec.worst_margin == rec.tolerance, rec.name
        # a check that did test something is not flagged
        rec = check_comparisons(zeros, mask, quad)
        assert rec.count == 3 and "vacuous" not in rec.details

    def test_slack_sign_is_pass(self, small_config):
        report = run_suite(small_config())
        assert {r.passed for r in report.records} == {True}
        for r in report.records:
            assert (r.details["slack"] >= 0) == r.passed, r.name
            # worst_margin and tolerance are the binding condition
            assert r.passed == (r.worst_margin <= r.tolerance), r.name
            assert r.details["slack"] == r.tolerance - r.worst_margin, r.name
        # records stay plain dataclasses that consumers can copy with changes
        assert dataclasses.replace(report.records[0], count=0).count == 0

    def test_slack_negative_on_failing_checks(self, monkeypatch):
        from affinebv import verify

        # the disk ratio is about 1, above this upper bound
        monkeypatch.setattr(verify, "SOBOLEV_UPPER", 0.9)
        monkeypatch.setattr(verify, "COMPARISON_EQUALITY_TOL", -1.0)
        monkeypatch.setattr(verify, "HUANG_LI_TOL", -1.0)
        _, mask = disk_domain(64)
        quad = make_quadrature(2, 64)
        disk = [("disk", GridFunction(mask.spec, mask.inside.astype(float)))]
        bumps = [(f"b{i}", u) for i, u in
                 enumerate(random_bumps(mask, 2, np.random.default_rng(3)))]
        records = [
            check_sobolev_zhang(disk, mask, quad, "face-atoms",
                                equality=True),
            check_comparisons(bumps, mask, quad),
            check_huang_li(bumps, mask, quad),
        ]
        for rec in records:
            assert not rec.passed, rec.name
            assert rec.details["slack"] < 0, rec.name

    def test_deterministic_reports_identical(self, small_config):
        cfg = small_config(suites=("comparisons",))
        r1 = json.dumps(run_suite(cfg).as_dict(), indent=2, sort_keys=True)
        r2 = json.dumps(run_suite(cfg).as_dict(), indent=2, sort_keys=True)
        assert r1 == r2

    def test_schema_valid(self, small_config):
        schema = json.loads(
            resources.files("affinebv").joinpath("report_schema.json")
            .read_text())
        doc = json.loads(json.dumps(run_suite(small_config()).as_dict(),
                                    indent=2, sort_keys=True))
        jsonschema.validate(doc, schema)
        # every record carries its slack
        del doc["records"][-1]["details"]["slack"]
        with pytest.raises(jsonschema.ValidationError, match="'slack'"):
            jsonschema.validate(doc, schema)

    def test_schema_golden_shape(self, small_config):
        report = run_suite(small_config(suites=("wirtinger_gap",)))
        doc = report.as_dict()
        assert set(doc) == {"version", "passed", "config", "records"}
        rec = doc["records"][0]
        assert set(rec) == {"name", "statement", "corpus", "count",
                            "worst_margin", "tolerance", "passed", "details"}


class TestPassFromSlack:
    """A record passes exactly when its slack is >= 0."""

    @staticmethod
    def _record(worst, count=1):
        # one condition: worst <= 0.0, of slack -worst
        return _record([(worst, 0.0)], name="check", statement="", corpus="",
                       count=count)

    def test_zero_slack_passes(self):
        assert self._record(0.0).passed

    def test_least_negative_slack_fails(self):
        rec = self._record(5e-324)
        assert not rec.passed
        assert rec.details["slack"] == -5e-324

    def test_vacuous_record_passes_with_zero_slack(self):
        rec = self._record(1.0, count=0)
        assert rec.passed
        assert rec.details == {"vacuous": True, "slack": 0.0}

    def test_config_lists_its_suites(self):
        doc = VerifyConfig(suites=("huang_li",)).as_dict()
        assert doc["suites"] == ["huang_li"]
        assert set(doc) == {"grid", "dirs", "seed", "n_fields", "suites"}


CHECKS = ("check_sobolev_zhang", "check_comparisons", "check_superadditivity",
          "check_affine_invariance", "check_wirtinger_gap", "check_huang_li")


class TestSuiteMap:
    """The suites of a run are tasks of the fork map, share i % k of k
    processes, with the report of a one-process run.  "Forked" is an
    affinity of three CPUs, "one process" an affinity of one."""

    @staticmethod
    def _checks_with(monkeypatch, before):
        """Route every check through ``before(pid)`` first."""
        for name in CHECKS:
            def check(*args, _orig=getattr(verify, name), **kw):
                before(os.getpid())
                return _orig(*args, **kw)

            monkeypatch.setattr(verify, name, check)

    @staticmethod
    def _report(config):
        return json.dumps(run_suite(config).as_dict(), sort_keys=True)

    @pytest.mark.parametrize("suite", ("all",) + verify.SUITES)
    def test_forked_equals_one_process(self, monkeypatch, tmp_path, request,
                                       suite):
        config = (VerifyConfig() if suite == "all" else
                  request.getfixturevalue("small_config")(suites=(suite,)))
        log = tmp_path / "pids"
        log.touch()

        def record(pid):
            with log.open("a") as f:
                f.write(f"{pid}\n")

        self._checks_with(monkeypatch, record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forked = self._report(config)
        assert not multiprocessing.active_children()
        forked_pids = set(log.read_text().split())
        log.write_text("")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        single = self._report(config)
        assert not multiprocessing.active_children()
        assert set(log.read_text().split()) == {str(os.getpid())}
        assert forked == single
        if suite == "all":
            # six suites over three processes
            assert len(forked_pids) == 3

    def test_corpora_drawn_in_suite_order(self, small_config):
        """Each suite's corpus continues the one generator where the previous
        suite's corpus left it, as a serial run draws them."""
        config = small_config()
        rng = np.random.default_rng(config.seed)
        _, disk = disk_domain(config.grid)
        _, square = square_domain(config.grid)
        for mask, count, signed in [(disk, 5, False), (disk, 5, True),
                                    (square, 1, True), (disk, 3, False)]:
            random_bumps(mask, count, rng, signed=signed)
        bumps = [(f"bump_{i}", u) for i, u in enumerate(random_bumps(disk, 2, rng))]
        ref = check_huang_li(bumps, disk, make_quadrature(2, config.dirs))
        (rec,) = [r for r in run_suite(config).records if r.name == "huang_li"]
        assert not multiprocessing.active_children()
        for name, _ in bumps:
            assert rec.details[name] == ref.details[name]

    def test_error_in_worker_keeps_its_type(self, monkeypatch, small_config):
        parent = os.getpid()

        def fail(pid):
            if pid != parent:
                raise FloatingPointError("raised in a worker's check")

        self._checks_with(monkeypatch, fail)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(FloatingPointError, match="raised in a worker's check") as info:
            run_suite(small_config())
        assert not multiprocessing.active_children()
        # the worker's traceback comes along as the cause
        cause = str(info.value.__cause__)
        assert "in worker " in cause and "in fail" in cause
        assert "FloatingPointError: raised in a worker's check" in cause

    @pytest.mark.parametrize("why", ["no fork", "daemonic", "thread"])
    def test_one_process_without_fork(self, monkeypatch, small_config, why):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        if why == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        elif why == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        pids = []
        self._checks_with(monkeypatch, pids.append)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        if why == "thread":
            other.start()
        try:
            report = run_suite(small_config())
        finally:
            done.set()
            if why == "thread":
                other.join(timeout=10)
                assert not other.is_alive()
        # one check call per record
        assert pids == [os.getpid()] * len(report.records) == [os.getpid()] * 7
        assert not multiprocessing.active_children()

    def test_blas_threads_leave_report_unchanged(self):
        """A forked suite gives the same report bytes with one BLAS thread
        and two."""
        script = (
            "import json\n"
            "from affinebv.verify import VerifyConfig, run_suite\n"
            "print(json.dumps(run_suite(VerifyConfig(n_fields=10)).as_dict(),"
            " sort_keys=True))\n")
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**src_env(), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]
        assert json.loads(out[0])["passed"] is True
