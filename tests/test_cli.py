"""Tests for the ``loupe`` command-line interface."""

import dataclasses

import pytest

from repro.cli import main


def _command_like_factory(request):
    """A registry factory whose backend claims real_execution: the
    --exec guard must treat it as consuming the command (capability-
    driven, not name-driven), while it actually runs the sim model —
    keeping these tests ptrace-free."""
    import repro.appsim as appsim
    from repro.api.registry import ResolvedTarget

    target = appsim._appsim_backend_factory(request)
    inner = target.backend

    class CommandLike:
        name = inner.name + "+cmd"

        def capabilities(self):
            return dataclasses.replace(
                inner.capabilities(), real_execution=True
            )

        def run(self, workload, policy, *, replica=0):
            return inner.run(workload, policy, replica=replica)

    return ResolvedTarget(
        backend=CommandLike(), workload=target.workload,
        app=target.app, app_version=target.app_version,
    )


class TestAnalyze:
    def test_analyze_sim_app(self, capsys):
        code = main(["analyze", "--app", "weborf", "--workload", "health"])
        assert code == 0
        out = capsys.readouterr().out
        assert "app: weborf" in out
        assert "required (" in out

    def test_analyze_unknown_app(self, capsys):
        assert main(["analyze", "--app", "doom"]) == 2

    def test_analyze_parallel_jobs(self, capsys):
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--jobs", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "app: weborf" in out
        assert "engine:" in out

    def test_analyze_no_cache(self, capsys):
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--no-cache",
        ])
        assert code == 0
        assert "0 cache hit(s)" in capsys.readouterr().out

    def test_analyze_rejects_nonpositive_replicas(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--app", "weborf", "--replicas", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_analyze_explicit_backend(self, capsys):
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--backend", "appsim",
        ])
        assert code == 0
        assert "app: weborf" in capsys.readouterr().out

    def test_analyze_exec_with_appsim_backend_rejected(self, capsys):
        code = main([
            "analyze", "--backend", "appsim", "--exec", "/bin/true",
        ])
        assert code == 2
        assert "--exec requires" in capsys.readouterr().err

    def test_removed_scale_out_surface_is_a_usage_error(self, capsys):
        for argv in (
            ["analyze", "--app", "weborf", "--executor", "remote"],
            ["analyze", "--app", "weborf", "--executor", "thread"],
            ["analyze", "--app", "weborf", "--workers", "h:1"],
            ["worker", "--port", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
        capsys.readouterr()

    def test_analyze_url_run_cache_refused(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["analyze", "--app", "weborf", "--workload", "health",
                     "--run-cache", "http://x"])
        assert code != 0
        assert "served HTTP run cache was removed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_unknown_backend(self, capsys):
        assert main(["analyze", "--app", "weborf",
                     "--backend", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "available:" in err
        assert "appsim" in err

    def test_analyze_multi_backend_prints_cross_validation(self, capsys):
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--backend", "appsim,appsim",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-validation: weborf/health" in out
        # A duplicated name deduplicates to one leg; the render says
        # so honestly instead of claiming vacuous agreement.
        assert "single target: nothing to cross-validate" in out
        # The single-backend report shape is not printed in fan-out mode.
        assert "required (" not in out

    def test_analyze_exec_with_mixed_spec_warns_but_proceeds(self, capsys):
        """analyze mirrors compare: --exec is only refused when *no*
        named backend would run the command; a model/command mix gets
        a stderr note."""
        from repro.api.registry import register_backend, unregister_backend

        register_backend(
            "appsim-cmd", _command_like_factory, replace=True
        )
        try:
            code = main([
                "analyze", "--app", "weborf", "--workload", "health",
                "--backend", "appsim,appsim-cmd", "--exec", "/bin/true",
            ])
        finally:
            unregister_backend("appsim-cmd")
        assert code == 0
        captured = capsys.readouterr()
        assert "only meaningful" in captured.err
        assert "cross-validation:" in captured.out

    def test_analyze_exec_refused_for_commandless_variant(self, capsys):
        """A registered appsim variant (no real_execution) must not
        slip past the guard just because its name isn't 'appsim'."""
        import repro.appsim as appsim
        from repro.api.registry import register_backend, unregister_backend

        register_backend(
            "appsim-b", appsim._appsim_backend_factory, replace=True
        )
        try:
            code = main([
                "analyze", "--app", "weborf", "--workload", "health",
                "--backend", "appsim-b", "--exec", "/bin/true",
            ])
        finally:
            unregister_backend("appsim-b")
        assert code == 2
        assert "--exec requires" in capsys.readouterr().err

    def test_analyze_exec_allows_legacy_contract_backend(self, capsys):
        """A backend with no capabilities() method cannot express
        real_execution; --exec must give it the benefit of the doubt
        instead of refusing — the pre-capability CLI refused only the
        literal name 'appsim'."""
        import repro.appsim as appsim
        from repro.api.registry import (
            ResolvedTarget,
            register_backend,
            unregister_backend,
        )

        def legacy_factory(request):
            target = appsim._appsim_backend_factory(request)
            inner = target.backend

            class Legacy:
                name = inner.name + "+legacy"

                def run(self, workload, policy, *, replica=0):
                    return inner.run(workload, policy, replica=replica)

            return ResolvedTarget(
                backend=Legacy(), workload=target.workload,
                app=target.app, app_version=target.app_version,
            )

        register_backend("legacy-exec", legacy_factory, replace=True)
        try:
            code = main([
                "analyze", "--app", "weborf", "--workload", "health",
                "--backend", "legacy-exec", "--exec", "/bin/true",
            ])
        finally:
            unregister_backend("legacy-exec")
        assert code == 0
        captured = capsys.readouterr()
        assert "--exec requires" not in captured.err
        assert "app: weborf" in captured.out

    def test_analyze_multi_backend_unknown_name_exits_2(self, capsys):
        assert main([
            "analyze", "--app", "weborf",
            "--backend", "appsim,bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "available:" in err
        assert "appsim" in err

    def test_analyze_empty_backend_name_exits_2(self, capsys):
        assert main([
            "analyze", "--app", "weborf", "--backend", "appsim,",
        ]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_rejected_analyze_leaves_no_run_cache_side_effect(
        self, tmp_path, capsys
    ):
        """Spec validation runs before the session opens (and would
        otherwise create) the --run-cache store — for malformed specs
        and for well-formed-but-unknown names alike."""
        for spec in ("appsim,", "typo", "appsim,typo"):
            cache = tmp_path / f"cache-{spec.strip(',')}.sqlite"
            assert main([
                "analyze", "--app", "weborf", "--backend", spec,
                "--run-cache", str(cache),
            ]) == 2
            capsys.readouterr()
            assert not cache.exists(), spec

    def test_jsonl_emitter_is_concurrency_safe(self, capsys):
        """Fan-out legs emit from several threads into one callback;
        every emitted line must stay well-formed JSON."""
        import json
        import threading

        from repro.api.events import BaselineStarted
        from repro.cli import _jsonl_emitter

        emitter = _jsonl_emitter(
            type("Args", (), {"events": "jsonl"})()
        )
        event = BaselineStarted(replicas=3, app="weborf")

        def blast():
            for _ in range(300):
                emitter(event)

        threads = [threading.Thread(target=blast) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1200
        assert all(
            json.loads(line)["event"] == "baseline_started"
            for line in lines
        )

    def test_analyze_multi_backend_saves_per_target_records(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "db.json"
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--backend", "appsim,appsim", "--output", str(out_path),
        ])
        assert code == 0
        from repro.db import Database

        assert len(Database.load(out_path)) == 1

    def test_analyze_events_jsonl(self, capsys):
        import json

        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--events", "jsonl",
        ])
        assert code == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        assert events, "expected at least one JSON event line"
        kinds = [event["event"] for event in events]
        assert kinds[0] == "analysis_started"
        assert "feature_probed" in kinds
        assert kinds[-1] == "analysis_finished"
        # the human report still follows the event stream
        assert "app: weborf" in out

    def test_analyze_saves_database(self, tmp_path, capsys):
        out_path = tmp_path / "db.json"
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--output", str(out_path),
        ])
        assert code == 0
        from repro.db import Database

        assert len(Database.load(out_path)) == 1


class TestCompare:
    def test_compare_two_sim_targets(self, capsys):
        import repro.appsim as appsim
        from repro.api.registry import register_backend, unregister_backend

        register_backend(
            "appsim-b", appsim._appsim_backend_factory, replace=True
        )
        try:
            code = main([
                "compare", "--app", "weborf", "--workload", "health",
                "--backends", "appsim,appsim-b",
            ])
        finally:
            unregister_backend("appsim-b")
        assert code == 0
        out = capsys.readouterr().out
        assert "across appsim, appsim-b" in out
        assert "backends agree: no divergences" in out

    def test_compare_exec_with_only_appsim_rejected(self, capsys):
        code = main([
            "compare", "--app", "weborf", "--backends", "appsim,appsim",
            "--exec", "/bin/true",
        ])
        assert code == 2
        assert "--exec requires" in capsys.readouterr().err

    def test_compare_exec_with_appsim_mix_warns(self, capsys):
        from repro.api.registry import register_backend, unregister_backend

        register_backend(
            "appsim-cmd", _command_like_factory, replace=True
        )
        try:
            code = main([
                "compare", "--app", "weborf", "--workload", "health",
                "--backends", "appsim,appsim-cmd", "--exec", "/bin/true",
            ])
        finally:
            unregister_backend("appsim-cmd")
        assert code == 0
        assert "only meaningful" in capsys.readouterr().err

    def test_compare_unknown_backend_exits_2(self, capsys):
        assert main([
            "compare", "--app", "weborf", "--backends", "bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "available:" in err

    def test_compare_events_jsonl_round_trips_report(self, capsys):
        import json

        from repro.report import CrossValidationReport

        code = main([
            "compare", "--app", "weborf", "--workload", "health",
            "--backends", "appsim,appsim", "--events", "jsonl",
        ])
        assert code == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        kinds = [event["event"] for event in events]
        assert "target_started" in kinds
        assert "target_finished" in kinds
        [report_event] = [
            e for e in events if e["event"] == "cross_validation_report"
        ]
        report = CrossValidationReport.from_dict(report_event["report"])
        assert report.app == "weborf"
        assert report.agrees
        assert report.to_dict() == report_event["report"]

    def test_compare_writes_report_json(self, tmp_path, capsys):
        import json

        from repro.report import CrossValidationReport

        path = tmp_path / "report.json"
        code = main([
            "compare", "--app", "weborf", "--workload", "health",
            "--backends", "appsim", "--report", str(path),
        ])
        assert code == 0
        assert "report saved to" in capsys.readouterr().out
        report = CrossValidationReport.from_dict(
            json.loads(path.read_text())
        )
        assert report.targets == ("appsim",)


class TestFaultFlags:
    """Out-of-range fault flags are usage errors, like ``--retries -1``:
    argparse refuses them before any run, with exit 2 and no
    traceback."""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("flag, value", [
        ("--probe-timeout", "-1"),
        ("--probe-timeout", "0"),
        ("--probe-timeout", "nan"),
        ("--probe-timeout", "inf"),
        ("--probe-timeout", "soon"),
        ("--retry-backoff", "-1"),
        ("--retry-backoff", "inf"),
        ("--retry-backoff", "nan"),
        ("--retries", "-1"),
    ])
    def test_out_of_range_value_is_a_usage_error(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--app", "weborf", "--workload", "health",
                  f"{flag}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}:" in err
        assert "Traceback" not in err

    def test_in_range_values_run(self, capsys):
        code = main([
            "analyze", "--app", "weborf", "--workload", "health",
            "--probe-timeout", "5", "--retry-backoff", "0",
        ])
        assert code == 0
        assert "app: weborf" in capsys.readouterr().out


class TestPlan:
    def test_plan_named_os(self, capsys):
        assert main(["plan", "--os", "unikraft"]) == 0
        out = capsys.readouterr().out
        assert "unikraft: step-by-step support plan" in out
        assert "+ mongodb" in out

    def test_plan_unknown_os(self, capsys):
        assert main(["plan", "--os", "templeos"]) == 2

    def test_plan_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "mini-os.csv"
        csv.write_text("read\nwrite\nmmap\n")
        assert main(["plan", "--support-csv", str(csv), "--os", "mini"]) == 0
        out = capsys.readouterr().out
        assert "mini: step-by-step support plan" in out

    def test_plan_with_names(self, capsys):
        assert main(["plan", "--os", "kerla", "--names"]) == 0
        assert "mongodb" in capsys.readouterr().out


class TestStudies:
    @pytest.mark.parametrize("study", ["table3", "table4", "fig8"])
    def test_cheap_studies(self, study, capsys):
        assert main(["study", study]) == 0
        assert capsys.readouterr().out.strip()

    def test_table4_values(self, capsys):
        main(["study", "table4"])
        out = capsys.readouterr().out
        assert "28 invocations" in out

    def test_fig4(self, capsys):
        assert main(["study", "fig4"]) == 0
        assert "mean avoidable" in capsys.readouterr().out

    def test_fig5_parallel_jobs(self, capsys):
        assert main(["study", "fig5", "--jobs", "4"]) == 0
        assert capsys.readouterr().out.strip()

    def test_jobs_noop_studies_warn(self, capsys):
        assert main(["study", "table3", "--jobs", "4"]) == 0
        captured = capsys.readouterr()
        assert "--jobs has no effect" in captured.err
        assert captured.out.strip()


class TestMisc:
    def test_corpus_listing(self, capsys):
        assert main(["corpus", "--size", "20"]) == 0
        out = capsys.readouterr().out
        assert "redis" in out
        assert "20 applications" in out

    def test_db_inspect(self, tmp_path, capsys):
        out_path = tmp_path / "db.json"
        main(["analyze", "--app", "weborf", "--workload", "health",
              "--output", str(out_path)])
        capsys.readouterr()
        assert main(["db", str(out_path)]) == 0
        assert "weborf" in capsys.readouterr().out

    def test_db_merge(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["analyze", "--app", "weborf", "--workload", "health",
              "--output", str(a)])
        main(["analyze", "--app", "iperf3", "--workload", "health",
              "--output", str(b)])
        capsys.readouterr()
        assert main(["db", str(a), "--merge", str(b)]) == 0
        from repro.db import Database

        assert len(Database.load(a)) == 2

    def test_scan(self, compiled_syscall_binary, capsys):
        assert main(["scan", compiled_syscall_binary]) == 0
        out = capsys.readouterr().out
        assert "syscalls at" in out

    def test_study_pseudo(self, capsys):
        assert main(["study", "pseudo"]) == 0
        assert "/dev/urandom" in capsys.readouterr().out

    @pytest.mark.ptrace
    @pytest.mark.slow
    def test_analyze_exec_real_binary(self, capsys):
        code = main([
            "analyze", "--replicas", "1", "--exec", "/bin/echo", "cli",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "app: /bin/echo" in out
        assert "required (" in out


class TestCacheOps:
    """The ``loupe cache`` group: stats, compact, gc, migrate."""

    def _warm(self, path):
        assert main(["analyze", "--app", "weborf", "--workload", "health",
                     "--run-cache", path]) == 0

    def test_stats_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        self._warm(path)
        capsys.readouterr()
        assert main(["cache", "stats", path]) == 0
        out = capsys.readouterr().out
        assert "backend: jsonl" in out
        assert "stale_records: 0" in out
        assert "entries:" in out

    def test_compact_reports_outcome(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        self._warm(path)
        capsys.readouterr()
        assert main(["cache", "compact", path]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_gc_requires_sqlite(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        self._warm(path)
        capsys.readouterr()
        assert main(["cache", "gc", path, "--max-entries", "5"]) == 2
        assert "migrate" in capsys.readouterr().err

    def test_migrate_then_warm_sqlite(self, tmp_path, capsys):
        jsonl = str(tmp_path / "runs.jsonl")
        sqlite = str(tmp_path / "runs.sqlite")
        self._warm(jsonl)
        capsys.readouterr()
        assert main(["cache", "migrate", jsonl, sqlite]) == 0
        assert "migrated" in capsys.readouterr().out
        self._warm(sqlite)
        out = capsys.readouterr().out
        assert "from the persistent cache" in out
        assert "0 executed" in out
        assert main(["cache", "gc", sqlite, "--max-entries", "5"]) == 0
        assert "evicted" in capsys.readouterr().out

    def test_analyze_sqlite_run_cache_with_cap(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        assert main(["analyze", "--app", "weborf", "--workload", "health",
                     "--run-cache", path,
                     "--run-cache-max-entries", "25"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", path]) == 0
        out = capsys.readouterr().out
        assert "backend: sqlite" in out

    def test_analyze_max_entries_rejected_on_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        assert main(["analyze", "--app", "weborf", "--workload", "health",
                     "--run-cache", path,
                     "--run-cache-max-entries", "25"]) == 2
        assert "sqlite" in capsys.readouterr().err

    def test_cache_ops_missing_path_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nothere.sqlite")
        for argv in (["cache", "stats", missing],
                     ["cache", "compact", missing],
                     ["cache", "gc", missing, "--max-entries", "5"],
                     ["cache", "migrate", missing,
                      str(tmp_path / "dst.sqlite")]):
            assert main(argv) == 2
            assert "no run-cache store" in capsys.readouterr().err
        # A typo'd path must not leave a silently-created empty store.
        assert not (tmp_path / "nothere.sqlite").exists()

    def test_analyze_max_entries_without_run_cache_rejected(self, capsys):
        assert main(["analyze", "--app", "weborf", "--workload", "health",
                     "--run-cache-max-entries", "25"]) == 2
        assert "requires --run-cache" in capsys.readouterr().err

    def test_cache_stats_mis_extensioned_file_exit_2(self, tmp_path,
                                                     capsys):
        path = tmp_path / "runs.db"
        path.write_text('{"not": "a database"}\n')
        assert main(["cache", "stats", str(path)]) == 2
        assert "not a SQLite database" in capsys.readouterr().err


class TestLint:
    def test_lint_single_clean_app(self, capsys):
        assert main(["lint", "--app", "weborf"]) == 0
        out = capsys.readouterr().out
        assert "lint: 1 app(s) checked, 0 error(s), 0 warning(s)" in out

    def test_lint_json_format(self, capsys):
        import json

        assert main(["lint", "--app", "weborf", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["apps_checked"] == 1
        assert payload["findings"] == []
        assert payload["counts"] == {"error": 0, "warning": 0}

    def test_lint_planted_violation_gates(self, capsys, monkeypatch):
        import json

        from repro.appsim.corpus import HANDBUILT, build

        bad = build("weborf")
        extra = dict(bad.program.static_extra)
        extra["binary"] = extra.get("binary", frozenset()) | {"frobnicate"}
        bad = dataclasses.replace(
            bad, program=dataclasses.replace(bad.program, static_extra=extra)
        )
        monkeypatch.setitem(HANDBUILT, "badapp", lambda: bad)
        assert main(["lint", "--app", "badapp", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "unknown-syscall"
        assert "frobnicate" in payload["findings"][0]["message"]

    def test_lint_select_and_ignore(self, capsys, monkeypatch):
        from repro.appsim.corpus import HANDBUILT, build

        bad = build("weborf")
        extra = dict(bad.program.static_extra)
        extra["binary"] = extra.get("binary", frozenset()) | {"frobnicate"}
        bad = dataclasses.replace(
            bad, program=dataclasses.replace(bad.program, static_extra=extra)
        )
        monkeypatch.setitem(HANDBUILT, "badapp", lambda: bad)
        assert main(["lint", "--app", "badapp",
                     "--ignore", "unknown-syscall"]) == 0
        capsys.readouterr()
        assert main(["lint", "--app", "badapp",
                     "--select", "dead-branch"]) == 0

    def test_lint_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--app", "weborf", "--select", "nope"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_lint_unknown_app_exits_2(self, capsys):
        assert main(["lint", "--app", "doom"]) == 2
        err = capsys.readouterr().err
        assert "doom" in err
        assert "weborf" in err

    def test_lint_database_audit(self, tmp_path, capsys):
        from repro.api.session import AnalysisRequest, LoupeSession

        session = LoupeSession()
        session.analyze(AnalysisRequest(app="weborf", workload="health"))
        path = tmp_path / "loupedb.json"
        session.database.save(path)
        assert main(["lint", "--app", "weborf", "--db", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_missing_database_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nothere.json")
        assert main(["lint", "--app", "weborf", "--db", missing]) == 2
        assert capsys.readouterr().err

    def test_lint_unsatisfiable_plan_gates(self, tmp_path, capsys):
        plan = tmp_path / "tiny.csv"
        plan.write_text("read\nwrite\n")
        assert main(["lint", "--app", "weborf", "--plan", str(plan),
                     "--workload", "health"]) == 1
        out = capsys.readouterr().out
        assert "unsatisfiable-plan" in out
