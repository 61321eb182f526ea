"""Normal runs must not trip any deprecation warning."""


class TestCliReadQueryFile:
    def test_normal_cli_runs_do_not_warn(self, tmp_path, capsys, recwarn):
        from repro.cli import main

        path = tmp_path / "q.rq"
        path.write_text("ASK { ?s ?p ?o }\n")
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]
