"""Verification harness: suite behavior, report schema, determinism."""

import dataclasses
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from affinebv import ConfigError, GridFunction, make_quadrature
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
    ellipse_domain,
    random_bumps,
    run_suite,
    square_domain,
)


def small_config(**kw):
    defaults = dict(grid=64, dirs=64, n_fields=5, n_maps=5)
    defaults.update(kw)
    return VerifyConfig(**defaults)


class TestIndividualChecks:
    def test_sobolev_zhang_disk_equality(self):
        spec, mask = disk_domain(128)
        quad = make_quadrature(2, 256)
        u = GridFunction(spec, mask.inside.astype(float))
        rec = check_sobolev_zhang([("disk", u)], mask, quad,
                                  backend="face-atoms",
                                  equality_cases=("disk",))
        assert rec.passed
        assert rec.details["disk"] == pytest.approx(1.0, abs=0.05)

    def test_sobolev_zhang_ellipse_equality(self):
        spec, mask = ellipse_domain(128, np.diag([2.0, 0.5]))
        quad = make_quadrature(2, 256)
        u = GridFunction(spec, mask.inside.astype(float))
        rec = check_sobolev_zhang([("ellipse", u)], mask, quad,
                                  backend="face-atoms",
                                  equality_cases=("ellipse",))
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

        spec, mask = square_domain(64)
        quad = make_quadrature(2, 128)
        fields = [(f"f{i}", u) for i, u in enumerate(
            random_bumps(mask, 3, np.random.default_rng(1), signed=True))]
        calls = []
        original = verify.affine_energy_extended

        def counted(*args, **kw):
            calls.append(1)
            return original(*args, **kw)

        monkeypatch.setattr(verify, "affine_energy_extended", counted)
        rec = check_superadditivity(fields, mask, quad, n_levels=4)
        assert rec.count == 3 * 4
        assert len(calls) == 3 * (1 + 2 * 4)

    def test_superadditivity_trivial_level(self):
        from affinebv import affine_energy_extended, truncate

        spec, mask = square_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(2)
        (u,) = random_bumps(mask, 1, rng)
        h = float(np.max(np.abs(u.values))) + 1.0
        pair = truncate(u, h)
        e = affine_energy_extended(u, mask, "face-atoms", quad)
        et = affine_energy_extended(pair.truncated, mask, "face-atoms", quad)
        assert et.value == pytest.approx(e.value, rel=1e-12)
        assert not pair.remainder.values.any()

    def test_affine_invariance_pass(self):
        spec, mask = disk_domain(64)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(3)
        fields = [(f"f{i}", u) for i, u in
                  enumerate(random_bumps(mask, 2, rng))]
        rec = check_affine_invariance(fields, mask, quad, n_maps=10)
        assert rec.passed
        assert rec.details["atom_worst"] <= 1e-3

    def test_wirtinger_gap(self):
        rec = check_wirtinger_gap(grid=64, dirs=64)
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
    def test_all_pass(self):
        report = run_suite(small_config())
        assert report.passed
        names = [r.name for r in report.records]
        for suite in ("comparisons", "superadditivity", "wirtinger_gap"):
            assert suite in names

    @pytest.mark.parametrize("field", ["n_fields", "n_maps"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 0"):
            small_config(**{field: -1})

    def test_empty_corpus_vacuous(self):
        report = run_suite(small_config(n_fields=0))
        assert report.passed
        assert all(r.details.get("empty") for r in report.records)
        assert all(r.details["vacuous"] for r in report.records)

    def test_zero_norm_corpus_vacuous(self):
        _, mask = disk_domain(48)
        quad = make_quadrature(2, 32)
        zeros = [(f"z{i}", GridFunction.zeros(mask.spec)) for i in range(3)]
        records = [check_sobolev_zhang(zeros, mask, quad),
                   check_superadditivity(zeros, mask, quad),
                   check_affine_invariance(zeros, mask, quad, n_maps=2),
                   check_huang_li(zeros, mask, quad)]
        for rec in records:
            assert rec.count == 0 and rec.passed, rec.name
            assert rec.details["vacuous"] is True, rec.name
            assert rec.details["slack"] == 0.0, rec.name
        # a check that did test something is not flagged
        rec = check_comparisons(zeros, mask, quad)
        assert rec.count == 3 and "vacuous" not in rec.details

    @pytest.mark.parametrize("forced", [None, 1e-3])
    def test_slack_sign_is_pass(self, forced):
        report = run_suite(small_config(forced_tolerance=forced))
        outcomes = {r.passed for r in report.records}
        assert outcomes == ({True} if forced is None else {True, False})
        for r in report.records:
            assert (r.details["slack"] >= 0) == r.passed, r.name
        # records stay plain dataclasses that consumers can copy with changes
        assert dataclasses.replace(report.records[0], count=0).count == 0

    def test_slack_negative_on_failing_checks(self):
        _, mask = disk_domain(64)
        quad = make_quadrature(2, 64)
        disk = [("disk", GridFunction(mask.spec, mask.inside.astype(float)))]
        bumps = [(f"b{i}", u) for i, u in
                 enumerate(random_bumps(mask, 2, np.random.default_rng(3)))]
        records = [
            # the disk ratio is about 1, above this upper bound
            check_sobolev_zhang(disk, mask, quad, backend="face-atoms",
                                equality_cases=("disk",), upper=0.9),
            check_comparisons(bumps, mask, quad, equality_tol=-1.0),
            check_huang_li(bumps, mask, quad, tolerance=-1.0),
        ]
        for rec in records:
            assert not rec.passed, rec.name
            assert rec.details["slack"] < 0, rec.name

    def test_forced_tolerance_fails(self):
        report = run_suite(small_config(forced_tolerance=0.0,
                                        suites=("sobolev_zhang",)))
        assert not report.passed

    def test_deterministic_reports_identical(self):
        cfg = small_config(suites=("comparisons",))
        r1 = run_suite(cfg).to_json()
        r2 = run_suite(cfg).to_json()
        assert r1 == r2

    def test_schema_valid(self):
        schema = json.loads(
            resources.files("affinebv").joinpath("report_schema.json")
            .read_text())
        report = run_suite(small_config(suites=("wirtinger_gap",)))
        jsonschema.validate(json.loads(report.to_json()), schema)

    def test_schema_golden_shape(self):
        report = run_suite(small_config(suites=("wirtinger_gap",)))
        doc = report.as_dict()
        assert set(doc) == {"version", "passed", "config", "records"}
        rec = doc["records"][0]
        assert set(rec) == {"name", "statement", "corpus", "count",
                            "worst_margin", "tolerance", "passed", "details"}


class TestPassFromSlack:
    """A record passes exactly when its slack is >= 0."""

    @staticmethod
    def _record(slack, count=1):
        return _record(slack, name="check", statement="", corpus="",
                       count=count, worst_margin=0.0, tolerance=0.0)

    def test_zero_slack_passes(self):
        assert self._record(0.0).passed

    def test_least_negative_slack_fails(self):
        rec = self._record(-5e-324)
        assert not rec.passed
        assert rec.details["slack"] == -5e-324

    def test_vacuous_record_passes_with_zero_slack(self):
        rec = self._record(-1.0, count=0)
        assert rec.passed
        assert rec.details == {"vacuous": True, "slack": 0.0}

    def test_config_lists_its_suites(self):
        doc = VerifyConfig(suites=("huang_li",)).as_dict()
        assert doc["suites"] == ["huang_li"]
        assert set(doc) == {"grid", "dirs", "seed", "n_fields", "n_maps",
                            "suites", "forced_tolerance"}
