"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestDemo:
    def test_weekend_demo(self, capsys):
        assert main(["demo", "weekend", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Optimal plan" in out
        assert "Top 3 answers" in out

    def test_demo_without_execution(self, capsys):
        assert main(["demo", "weekend", "-k", "3", "--no-execute"]) == 0
        out = capsys.readouterr().out
        assert "Optimal plan" in out
        assert "Top 3 answers" not in out

    def test_demo_requests_metric(self, capsys):
        assert main(
            ["demo", "weekend", "-k", "3", "--metric", "requests",
             "--no-execute"]
        ) == 0
        assert "request-response" in capsys.readouterr().out

    def test_default_domain_is_travel(self, capsys):
        assert main(["demo", "-k", "10", "--no-execute"]) == 0
        out = capsys.readouterr().out
        assert "conf" in out and "weather" in out


class TestOptimize:
    def test_adhoc_query_over_travel(self, capsys):
        query = (
            "q(City, Hotel, HPrice) :- "
            "conf('DB', Conf, Start, End, City), "
            "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
            "HPrice <= 600."
        )
        assert main(["optimize", query, "-k", "5", "--no-execute"]) == 0
        out = capsys.readouterr().out
        assert "Optimal plan" in out

    def test_blocked_query_is_served_through_off_query_expansion(self, capsys):
        """No access pattern of ``weather`` outputs the city, so the
        query alone admits no plan; a ``hotel`` seeder outputs cities
        and the expansion is optimized and run (paper §7)."""
        query = "q(C, T) :- weather(C, T, '2008-08-24')."
        assert main(["optimize", "--domain", "travel", query]) == 0
        out = capsys.readouterr().out
        assert "+ hotel(Hotel0, C, Hotel2, Hotel3, Hotel4, Hotel5)" in out
        assert "answers are a subset of the original query's" in out
        assert "Optimal plan under execution-time (cost 19.9)" in out
        assert "Top 10 answers:" in out


class TestQueryCommand:
    def test_repeat_flips_provenance_to_memory(self, capsys):
        assert main(
            ["query", "--domain", "weekend", "-k", "3", "--repeat", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        import json

        first, second, snapshot = (json.loads(line) for line in lines)
        assert first["provenance"] == "optimized"
        assert second["provenance"] == "memory"
        assert second["rows"] == first["rows"]
        assert second["rank_keys"] == first["rank_keys"]
        assert second["stats"]["service_calls"] == 0  # shared service cache
        assert snapshot["plan_cache"]["memory_hits"] == 1

    def test_adhoc_query_and_disk_persistence(self, capsys, tmp_path):
        cache_path = str(tmp_path / "plans.json")
        query = (
            "q(City, Price) :- lowcost('Milano', City, Date, Price), "
            "Price <= 60."
        )
        import json

        assert main(
            ["query", query, "--domain", "weekend", "-k", "2",
             "--plan-cache", cache_path]
        ) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert first["provenance"] == "optimized"
        # A second process (fresh service) starts warm from disk.
        assert main(
            ["query", query, "--domain", "weekend", "-k", "2",
             "--plan-cache", cache_path]
        ) == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert second["provenance"] == "disk"
        assert second["rows"] == first["rows"]

    @pytest.mark.parametrize("name", ["p.sqlite", "p.db", "p.json", "p"])
    def test_plan_cache_is_sqlite_whatever_the_suffix(
        self, capsys, tmp_path, name
    ):
        # Any new path becomes a WAL-mode SQLite database, and a second
        # process starts warm from it.
        import json
        import sqlite3

        cache_path = str(tmp_path / name)
        query = (
            "q(City, Price) :- lowcost('Milano', City, Date, Price), "
            "Price <= 60."
        )
        assert main(
            ["query", query, "--domain", "weekend", "-k", "2",
             "--plan-cache", cache_path]
        ) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert first["provenance"] == "optimized"
        with sqlite3.connect(cache_path) as db:
            assert db.execute("SELECT COUNT(*) FROM plans").fetchone()[0] == 1
        assert main(
            ["query", query, "--domain", "weekend", "-k", "2",
             "--plan-cache", cache_path]
        ) == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert second["provenance"] == "disk"
        assert second["rows"] == first["rows"]

    def test_resilience_flags_build_the_config_and_the_breaker(
        self, capsys, monkeypatch
    ):
        import repro.serving
        from repro.execution.resilience import ResilienceConfig
        from repro.serving import CircuitBreaker, QueryService

        built = []

        class Recording(QueryService):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(repro.serving, "QueryService", Recording)
        assert main(
            ["query", "--domain", "weekend", "-k", "2", "--retries", "2",
             "--partial-results", "--adaptive"]
        ) == 0
        (service,) = built
        assert service.resilience == ResilienceConfig(
            attempts=3, partial_results=True
        )
        assert isinstance(service.breaker, CircuitBreaker)

    @pytest.mark.parametrize(
        "flags",
        [["--retries", "3", "--partial-results"], ["--adaptive"]],
        ids=["retries-partial", "adaptive"],
    )
    @pytest.mark.parametrize(
        "domain",
        ["biblio", "biblio-fts", "biblio-sqlite", "bio", "travel", "weekend"],
    )
    def test_quiet_resilience_flags_change_no_answer(
        self, capsys, domain, flags
    ):
        """Over a fault-free domain the resilience flags add only a
        completeness certificate and an untripped breaker table."""
        import json

        def run(extra):
            assert main(
                ["query", "--domain", domain, "-k", "3", "--repeat", "2"]
                + extra
            ) == 0
            return [
                json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()
            ]

        *plain_responses, plain_snapshot = run([])
        *responses, snapshot = run(flags)
        for plain, response in zip(plain_responses, responses, strict=True):
            certificate = response.pop("partial")
            assert plain.pop("partial") is None
            assert response == plain
            assert certificate["partial"] is False
            assert certificate["dropped"] == []
            assert certificate["substituted"] == []
            assert len(certificate["answer_units"]) == len(response["rows"])
        assert snapshot.pop("breaker", {}) == {}
        assert snapshot == plain_snapshot

    def test_json_plan_cache_file_is_refused_with_a_message(
        self, capsys, tmp_path
    ):
        cache_path = tmp_path / "plans.db"
        cache_path.write_text('{"version": 1, "entries": {}}')
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--domain", "weekend", "--plan-cache", str(cache_path)])
        assert "migrate-plan-cache" in str(exit_info.value)
        assert cache_path.read_text() == '{"version": 1, "entries": {}}'


class TestMigratePlanCache:
    def test_round_trip_database_rows_win(self, capsys, tmp_path):
        from repro.plans.spec import PlanSpec
        from repro.serving import PlanCache
        from tests.test_serving import _json_tier_payload

        old_spec = PlanSpec(("io",), (), ())
        new_spec = PlanSpec(("oi",), (), ())
        json_path = tmp_path / "plans.json"
        json_path.write_text(_json_tier_payload({
            "migrated": (old_spec, 1.0, "time", "e1"),
            "shared": (old_spec, 1.0, "time", "e1"),
        }))
        sqlite_path = tmp_path / "plans.sqlite"
        newer = PlanCache(path=sqlite_path)
        newer.store("shared", new_spec, 9.0, "time", "e2")
        newer.close()
        assert main(
            ["migrate-plan-cache", str(json_path), str(sqlite_path)]
        ) == 0
        assert "imported 1 of 2 plans" in capsys.readouterr().out
        migrated = PlanCache(path=sqlite_path)
        hit = migrated.lookup("migrated")
        assert hit is not None and hit.epoch == "e1" and hit.spec == old_spec
        kept = migrated.lookup("shared")  # existing database row wins
        assert kept.cost == 9.0 and kept.epoch == "e2" and kept.spec == new_spec
        assert migrated.disk_entries == 2

    @pytest.mark.parametrize("content", [None, "not json", '{"version": 3}'])
    def test_unreadable_source_is_a_message_not_a_traceback(
        self, capsys, tmp_path, content
    ):
        source = tmp_path / "absent.json"
        if content is not None:
            source.write_text(content)
        target = tmp_path / "plans.sqlite"
        assert main(["migrate-plan-cache", str(source), str(target)]) == 1
        captured = capsys.readouterr()
        assert "not a readable JSON plan-cache file" in captured.err
        assert captured.out == "" and not target.exists()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["optimize", "--domain", "weekend", "q(C) :- concerts(C, 'Milano')."],
             "SchemaError: atom concerts(C, 'Milano') has arity 2"),
            (["optimize", "--domain", "weekend", "q(X) :- nosuch(X)."],
             "SchemaError: unknown service 'nosuch'"),
            (["optimize", "not a query", "--no-execute"], "ParseError: "),
            (["query", "--domain", "weekend", "garbage"], "ParseError: "),
            (["query", "-k", "0"], "ValueError: k must be >= 1, got 0"),
            (["demo", "-k", "0"], "ValueError: k must be >= 1, got 0"),
            (["query", "--domain", "weekend", "--retries", "-5"],
             "ValueError: attempts must be >= 1, got -4"),
        ],
        ids=["arity", "unknown-service", "optimize-parse", "query-parse",
             "query-k0", "demo-k0", "negative-retries"],
    )
    def test_one_shot_commands_answer_bad_input_with_a_message(
        self, capsys, argv, error
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["query", "serve"])
    @pytest.mark.parametrize(
        "where, error",
        [
            ("directory", "OperationalError: unable to open database file"),
            ("file-child", "FileExistsError: "),
        ],
    )
    def test_a_plan_cache_path_sqlite_cannot_open_is_a_message(
        self, capsys, monkeypatch, tmp_path, command, where, error
    ):
        import io

        (tmp_path / "FILE").write_text("")
        path = tmp_path if where == "directory" else tmp_path / "FILE" / "plans.sqlite"
        monkeypatch.setattr("sys.stdin", io.StringIO("demo\n"))
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--domain", "weekend", "--plan-cache", str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}")
        assert "Traceback" not in captured.err

    def test_the_retired_hedge_flag_is_refused_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--hedge", "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --hedge" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_loop(self, capsys, monkeypatch):
        import io
        import json

        script = (
            "q(City, Date, Price, Venue) :- "
            "lowcost('Milano', City, Date, Price), "
            "concerts(City, Date, 'Mahler', Venue), Price <= 120.\n"
            "more s000001 2\n"
            "not a query\n"
            "stats\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", "--domain", "weekend", "-k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        submitted = json.loads(lines[0])
        assert submitted["provenance"] == "optimized"
        assert submitted["session_id"] == "s000001"
        more = json.loads(lines[1])
        assert more["provenance"] == "session"
        assert len(more["rows"]) >= len(submitted["rows"])
        assert "error" in json.loads(lines[2])
        stats = json.loads(lines[3])
        assert stats["serving"]["continuations"] == 1

    def test_more_below_one_is_an_error_line_and_the_session_survives(
        self, capsys, monkeypatch
    ):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("demo\nmore s000001 -10\nmore s000001 3\n")
        )
        assert main(["serve", "--domain", "weekend", "-k", "3"]) == 0
        first, refused, more, stats = map(
            json.loads, capsys.readouterr().out.strip().splitlines()
        )
        assert refused == {"error": "ValueError: additional must be >= 1, got -10"}
        assert len(more["rows"]) == 6 and more["rows"][:3] == first["rows"]
        assert not more["complete"]
        assert stats["serving"]["continuations"] == 1

    def test_query_named_like_more_is_not_misrouted(self, capsys, monkeypatch):
        import io
        import json

        script = (
            "more_shows(City, Venue) :- "
            "concerts(City, Date, 'Mahler', Venue).\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", "--domain", "weekend", "-k", "2"]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "error" not in response
        assert response["columns"] == ["City", "Venue"]


class TestArgparse:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "mars"])
