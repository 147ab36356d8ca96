"""Tests for the command-line interface and the query renderer."""

import pytest

from repro.cli import load_csv_database, main
from repro.query import parse_cq
from repro.query.render import describe_query, render_join_tree
from repro.query.acyclicity import join_tree


@pytest.fixture()
def csv_db(tmp_path):
    (tmp_path / "R.csv").write_text("a,b\n1,10\n2,20\n")
    (tmp_path / "S.csv").write_text("b,c\n10,x\n10,y\n20,z\n")
    return tmp_path


class TestCsvLoading:
    def test_loads_relations(self, csv_db):
        db = load_csv_database(str(csv_db))
        assert sorted(db.names()) == ["R", "S"]
        assert db.relation("R").rows == [(1, 10), (2, 20)]
        assert db.relation("S").rows[0] == (10, "x")

    def test_value_parsing(self, tmp_path):
        (tmp_path / "T.csv").write_text("a,b,c\n1,2.5,hello\n")
        db = load_csv_database(str(tmp_path))
        assert db.relation("T").rows == [(1, 2.5, "hello")]

    def test_missing_directory(self):
        with pytest.raises(SystemExit):
            load_csv_database("/no/such/dir")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            load_csv_database(str(tmp_path))


class TestCommands:
    def test_classify_free_connex(self, capsys):
        assert main(["classify", "Q(x, y) :- R(x, y), S(y, z)"]) == 0
        out = capsys.readouterr().out
        assert "free-connex acyclic" in out
        assert "join tree" in out

    def test_classify_hard_query(self, capsys):
        main(["classify", "Q(x, z) :- R(x, y), S(y, z)"])
        out = capsys.readouterr().out
        assert "acyclic but not free-connex" in out
        assert "intractable" in out

    def test_count(self, csv_db, capsys):
        code = main(["count", "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_access(self, csv_db, capsys):
        main(["access", "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db), "0", "99"])
        out = capsys.readouterr().out
        assert "1, 10, x" in out
        assert "out-of-bound" in out

    def test_shuffle_with_seed(self, csv_db, capsys):
        main(["shuffle", "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db),
              "--seed", "3"])
        first = capsys.readouterr().out
        main(["shuffle", "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db),
              "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 3

    def test_shuffle_limit(self, csv_db, capsys):
        main(["shuffle", "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db),
              "--seed", "1", "--limit", "2"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    @pytest.mark.parametrize("argv, name", [
        (["page", "0", "--page-size", "0"], "--page-size"),
        (["sample", "--", "-3"], "k"),
        (["shuffle", "--limit", "-1"], "--limit"),
    ])
    def test_bad_counts_are_usage_errors(self, csv_db, capsys, argv, name):
        command, *rest = argv
        with pytest.raises(SystemExit) as exited:
            main([command, "Q(a, b, c) :- R(a, b), S(b, c)", str(csv_db), *rest])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {name}: must be at least" in err

    def test_tpch_sizes(self, capsys):
        main(["tpch", "--scale-factor", "0.001", "--seed", "2"])
        out = capsys.readouterr().out
        assert "lineitem" in out and "region\t5" in out


class TestMutationCommands:
    QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"

    def test_insert_persists_to_csv(self, csv_db, capsys):
        assert main(["insert", str(csv_db), "R", "3", "10"]) == 0
        assert "inserted" in capsys.readouterr().out
        assert (csv_db / "R.csv").read_text().splitlines()[-1] == "3,10"
        main(["count", self.QUERY, str(csv_db)])
        assert capsys.readouterr().out.strip() == "5"

    def test_insert_duplicate_is_noop(self, csv_db, capsys):
        before = (csv_db / "R.csv").read_text()
        assert main(["insert", str(csv_db), "R", "1", "10"]) == 0
        assert "no-op" in capsys.readouterr().out
        assert (csv_db / "R.csv").read_text() == before

    def test_delete_persists_to_csv(self, csv_db, capsys):
        assert main(["delete", str(csv_db), "S", "10", "y"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert "10,y" not in (csv_db / "S.csv").read_text()
        main(["count", self.QUERY, str(csv_db)])
        assert capsys.readouterr().out.strip() == "2"

    def test_page_with_dynamic_mutations(self, csv_db, capsys):
        code = main(["page", self.QUERY, str(csv_db), "0", "--page-size", "10",
                     "--dynamic", "--insert", "S:20,w", "--delete", "R:1,10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 absorbed in place, 0 invalidations" in out
        assert "2, 20, z" in out and "2, 20, w" in out
        assert "1, 10, x" not in out
        # The CSV files were not touched: serving mutations are ephemeral.
        assert "20,w" not in (csv_db / "S.csv").read_text()

    def test_sample_with_static_mutations_invalidates(self, csv_db, capsys):
        code = main(["sample", self.QUERY, str(csv_db), "4", "--seed", "1",
                     "--insert", "S:20,w"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 insert(s), 0 delete(s) (0 absorbed in place" in out
        assert len(out.strip().splitlines()) == 1 + 4  # summary + 4 draws

    def test_bad_fact_spec_exits(self, csv_db):
        with pytest.raises(SystemExit):
            main(["page", self.QUERY, str(csv_db), "0", "--insert", "garbage"])

    def test_stats_dynamic_counts_in_place_updates(self, csv_db, capsys):
        code = main(["stats", self.QUERY, str(csv_db), "--dynamic",
                     "--insert", "S:20,w", "--delete", "R:1,10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "answers: 2" in out
        assert "dynamic_builds: 1" in out
        assert "in_place_updates: 2" in out
        assert "mutation_invalidations: 0" in out

    def test_stats_static_counts_rebuilds(self, csv_db, capsys):
        code = main(["stats", self.QUERY, str(csv_db), "--insert", "S:20,w"])
        assert code == 0
        out = capsys.readouterr().out
        assert "static_builds: 1" in out or "static_builds: 2" in out
        assert "in_place_updates: 0" in out
        assert "mutation_invalidations: 1" in out

    def test_stats_serves_unions(self, csv_db, capsys):
        union = "Q(a, b) :- R(a, b) ; Q(a, b) :- R(a, b)"
        code = main(["stats", union, str(csv_db), "--dynamic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "answers: 2" in out and "dynamic_builds: 1" in out


class TestDurabilityCommands:
    QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"

    @staticmethod
    def _write_delta(path, *ops):
        import json

        path.write_text("".join(json.dumps(op) + "\n" for op in ops))

    def test_apply_wal_seeds_then_recovers(self, csv_db, tmp_path, capsys):
        store = tmp_path / "store"
        delta1 = tmp_path / "d1.jsonl"
        self._write_delta(
            delta1,
            {"op": "insert", "relation": "S", "row": [20, "w"]},
            {"op": "insert", "relation": "R", "row": [3, 20]},
        )
        assert main(["apply", str(csv_db), str(delta1), "--wal", str(store)]) == 0
        assert (store / "wal.jsonl").exists()
        assert (store / "checkpoints").is_dir()
        capsys.readouterr()

        # Second run recovers from the store, not the CSVs.
        delta2 = tmp_path / "d2.jsonl"
        self._write_delta(
            delta2, {"op": "delete", "relation": "S", "row": [10, "x"]}
        )
        assert main(["apply", str(csv_db), str(delta2), "--wal", str(store)]) == 0
        assert "recovered" in capsys.readouterr().out

        assert main(["recover", str(store)]) == 0
        out = capsys.readouterr().out
        assert "recovered version:" in out
        assert "R\t3" in out and "S\t3" in out

    def test_recover_exports_csv(self, csv_db, tmp_path, capsys):
        store = tmp_path / "store"
        delta = tmp_path / "d.jsonl"
        self._write_delta(
            delta, {"op": "insert", "relation": "S", "row": [20, "w"]}
        )
        main(["apply", str(csv_db), str(delta), "--wal", str(store)])
        capsys.readouterr()
        out_dir = tmp_path / "exported"
        assert main(["recover", str(store), "--csv", str(out_dir)]) == 0
        assert (out_dir / "S.csv").exists()
        capsys.readouterr()
        main(["count", self.QUERY, str(out_dir)])
        assert capsys.readouterr().out.strip() == "4"

    def test_checkpoint_folds_log_tail(self, csv_db, tmp_path, capsys):
        store = tmp_path / "store"
        delta = tmp_path / "d.jsonl"
        self._write_delta(
            delta, {"op": "insert", "relation": "S", "row": [20, "w"]}
        )
        main(["apply", str(csv_db), str(delta), "--wal", str(store)])
        capsys.readouterr()
        assert main(["checkpoint", str(store)]) == 0
        assert "checkpoint written:" in capsys.readouterr().out
        # After checkpointing, recovery replays nothing.
        main(["recover", str(store)])
        assert "replayed: 0 batch(es)" in capsys.readouterr().out

    def test_recover_empty_store_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["recover", str(tmp_path / "nothing")])

    def test_mutation_csv_rewrite_is_canonical(self, csv_db, capsys):
        # insert a fact whose values need the canonical encoding
        assert main(["insert", str(csv_db), "S", "20", "true"]) == 0
        text = (csv_db / "S.csv").read_text()
        assert "20,true" in text
        db = load_csv_database(str(csv_db))
        assert (20, True) in set(db.relation("S").rows)
        # and the persisted fact can be deleted again (round-trip equality)
        assert main(["delete", str(csv_db), "S", "20", "true"]) == 0
        assert "deleted" in capsys.readouterr().out


class TestRenderer:
    def test_join_tree_drawing(self):
        q = parse_cq("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)")
        text = render_join_tree(join_tree(q), q)
        assert "R(a, b)" in text and "└──" in text

    def test_forest_drawing(self):
        q = parse_cq("Q(a, b) :- R(a), S(b)")
        text = render_join_tree(join_tree(q), q)
        assert "R(a)" in text and "S(b)" in text

    def test_describe_self_join(self):
        text = describe_query(parse_cq("Q(x, y, z) :- R(x, y), R(y, z)"))
        assert "self-join free : False" in text

    def test_describe_cyclic(self):
        text = describe_query(parse_cq("Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"))
        assert "cyclic" in text
