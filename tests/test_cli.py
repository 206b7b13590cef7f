"""End-to-end tests of the command-line interface, driven through main()."""

import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from graphmarkov import cli
from graphmarkov import data as data_module
from graphmarkov.cli import main, read_manifest_records
from graphmarkov.data import ingest_csv


def run(argv):
    return main(argv)


def simulate_small(out_dir, seed=3, nodes=6, steps=150, gamma=0.9):
    code = run([
        "simulate", "--nodes", str(nodes), "--steps", str(steps),
        "--gamma", str(gamma), "--noise", "0.01", "--seed", str(seed),
        "--out", str(out_dir),
    ])
    assert code == 0
    return out_dir / "speed.csv", out_dir / "adjacency.csv"


def train_small(data_dir, out_dir, model="gmn", n=2, extra=()):
    speed, adjacency = data_dir / "speed.csv", data_dir / "adjacency.csv"
    code = run([
        "train", "--model", model, "--n", str(n), "--gamma", "0.9",
        "--missing-rate", "0.2", "--batch-size", "32", "--seed", "5",
        "--speed", str(speed), "--adjacency", str(adjacency),
        "--out", str(out_dir),
    ])
    assert code == 0
    return out_dir / "model.ckpt"


class TestSimulate:
    def test_writes_files_and_manifest(self, tmp_path):
        speed, adjacency = simulate_small(tmp_path / "sim")
        assert speed.exists() and adjacency.exists()
        records = read_manifest_records(tmp_path / "sim" / "manifest.txt")
        assert len(records) == 1
        assert records[0]["command"] == "simulate"
        assert records[0]["seed"] == "3"
        assert "sha256_speed" in records[0]

    def test_speed_digest_is_the_written_bytes_without_a_read_back(self, tmp_path, monkeypatch):
        sha256 = cli._sha256
        hashed = []
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(Path(path).name) or sha256(path))
        speed, _ = simulate_small(tmp_path / "sim")
        assert hashed == ["adjacency.csv"]
        record = read_manifest_records(tmp_path / "sim" / "manifest.txt")[0]
        assert record["sha256_speed"] == sha256(speed)

    def test_deterministic_per_seed(self, tmp_path):
        s1, a1 = simulate_small(tmp_path / "a", seed=11)
        s2, a2 = simulate_small(tmp_path / "b", seed=11)
        s3, _ = simulate_small(tmp_path / "c", seed=12)
        assert s1.read_bytes() == s2.read_bytes()
        assert a1.read_bytes() == a2.read_bytes()
        assert s1.read_bytes() != s3.read_bytes()

    def test_file_reads_back_as_rounded_rollout(self, tmp_path):
        """Readings are written to 4 decimals, but none becomes a missing
        cell: the file's missing cells are the rollout's zeros, every value
        lies within 5e-5 of the rollout, and a reading below that, floored
        to 1e-4, within 1e-4."""
        speed, _ = simulate_small(tmp_path / "sim", steps=600)
        graph = cli.random_network(6, 3)
        spec = cli.random_transition(graph, 3, gamma=0.9, noise_std=0.01)
        rollout = cli.simulate_gmp(graph, spec, steps=600, seed=4).values
        back = ingest_csv(speed)
        np.testing.assert_array_equal(back.mask, rollout != 0.0)
        floored = (rollout > 0.0) & (rollout < 5e-5)
        assert floored.any()
        np.testing.assert_array_equal(back.values[floored], 1e-4)
        assert np.abs(back.values - rollout)[~floored].max() <= 5e-5

    def test_rejects_out_of_range_gamma(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["simulate", "--gamma", "1.5", "--out", str(tmp_path)])

    def test_rejects_single_step(self, tmp_path, capsys):
        code = run(["simulate", "--steps", "1", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_rejects_non_finite_noise(self, tmp_path, capsys, noise):
        code = run(["simulate", "--noise", noise, "--out", str(tmp_path / "sim")])
        assert code == 1
        assert "noise level must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


class TestTrain:
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_rejects_non_finite_lr_before_reading_data(self, tmp_path, capsys, lr):
        code = run([
            "train", "--model", "gmn", "--lr", lr, "--speed", str(tmp_path / "absent.csv"),
            "--adjacency", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "lr_init must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_produces_checkpoint_history_manifest(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        assert ckpt.exists()
        history = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,lr"
        assert len(history) >= 2
        records = read_manifest_records(tmp_path / "run" / "manifest.txt")
        assert records[-1]["command"] == "train"
        assert records[-1]["model"] == "gmn"
        assert records[-1]["missing_rate"] == "0.2"
        out = capsys.readouterr().out
        assert "epoch" in out and "best epoch" in out

    def test_size_mismatch_is_single_line_error(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", nodes=6)
        other = tmp_path / "other"
        simulate_small(other, nodes=5, seed=9)
        code = run([
            "train", "--model", "gmn", "--n", "2",
            "--speed", str(tmp_path / "sim" / "speed.csv"),
            "--adjacency", str(other / "adjacency.csv"),
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "sensor columns" in err and err.count("\n") == 1

    def test_over_long_csv_field_is_single_line_error(self, tmp_path, capsys):
        """An unbalanced quote in the speed file's header runs its field to
        the end of the file, past the csv module's size limit."""
        speed, adjacency = simulate_small(tmp_path / "sim")
        text = speed.read_text()
        speed.write_text(text.replace(",", ',"', 1) + text * (140_000 // len(text)))
        capsys.readouterr()
        code = run([
            "train", "--model", "gmn", "--speed", str(speed), "--adjacency", str(adjacency),
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {speed}: field larger") and err.count("\n") == 1

    def test_missing_speed_file_errors(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        code = run([
            "train", "--model", "gmn",
            "--speed", str(tmp_path / "nope.csv"),
            "--adjacency", str(tmp_path / "sim" / "adjacency.csv"),
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "split, message",
        [
            ("a:b:c", "split parts must be numeric, got 'a:b:c'"),
            ("0:0:0", "split parts must each be positive, got '0:0:0'"),
            ("6:0:2", "split parts must each be positive, got '6:0:2'"),
            ("6:-1:2", "split parts must each be positive, got '6:-1:2'"),
            ("6:nan:2", "split parts must each be positive, got '6:nan:2'"),
        ],
        ids=["non-numeric", "zero-total", "zero-part", "negative-part", "nan-part"],
    )
    def test_rejects_bad_split(self, tmp_path, capsys, split, message):
        with pytest.raises(SystemExit) as exited:
            run(["train", "--model", "gmn", "--split", split, "--speed", "s.csv",
                 "--adjacency", "a.csv", "--out", str(tmp_path / "run")])
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --split: {message}\n")
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_inherits_train_settings_from_manifest(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "run")])
        assert code == 0
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("which,mae,rmse,mape")
        assert lines[1].startswith("model,")
        assert lines[2].startswith("baseline,")
        out = capsys.readouterr().out
        assert "MAE" in out and "baseline" in out

    def test_residual_export_has_full_group_set(self, tmp_path):
        simulate_small(tmp_path / "sim", steps=400)
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        code = run([
            "eval", "--checkpoint", str(ckpt), "--residuals", "hour",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        lines = (tmp_path / "run" / "residuals_hour.csv").read_text().splitlines()
        assert len(lines) == 25

    def test_rejects_mismatched_adjacency(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim", nodes=6)
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        other = tmp_path / "other"
        simulate_small(other, nodes=5, seed=9)
        code = run([
            "eval", "--checkpoint", str(ckpt),
            "--adjacency", str(other / "adjacency.csv"),
            "--speed", str(other / "speed.csv"),
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 1
        assert "sensors" in capsys.readouterr().err

    def test_rejects_wrong_n_override(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run", n=2)
        code = run([
            "eval", "--checkpoint", str(ckpt), "--n", "3",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "history depth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("split", "6:2"), ("seed", "x"), ("missing_rate", ""), ("missing_rate", "1.5")]
    )
    def test_corrupt_manifest_value_is_single_line_error(self, tmp_path, capsys, key, value):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        manifest = tmp_path / "run" / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(
            f"{key}={value}\n" if line.startswith(f"{key}=") else line for line in lines
        ))
        capsys.readouterr()
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: key {key!r}:") and err.count("\n") == 1

    def test_rejects_missing_checkpoint(self, tmp_path, capsys):
        missing = tmp_path / "none" / "model.ckpt"
        code = run(["eval", "--checkpoint", str(missing), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"error: checkpoint {missing} does not exist\n"

    def test_errors_without_manifest_or_flags(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        moved = tmp_path / "elsewhere" / "model.ckpt"
        moved.parent.mkdir()
        moved.write_bytes(ckpt.read_bytes())
        code = run(["eval", "--checkpoint", str(moved), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "manifest" in capsys.readouterr().err


class TestEvalInputPaths:
    """A training run given relative input paths, evaluated from elsewhere."""

    def train_relative(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        simulate_small(Path("sim"))
        train_small(Path("sim"), Path("run"))
        code = run(["eval", "--checkpoint", "run/model.ckpt", "--out", "reference"])
        assert code == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        return tmp_path / "run" / "model.ckpt"

    def test_finds_inputs_from_another_directory(self, tmp_path, monkeypatch):
        ckpt = self.train_relative(tmp_path, monkeypatch)
        assert run(["eval", "--checkpoint", str(ckpt), "--out", "out"]) == 0
        assert (tmp_path / "elsewhere" / "out" / "metrics.csv").read_bytes() == \
            (tmp_path / "reference" / "metrics.csv").read_bytes()

    def test_ignores_same_named_files_in_the_working_directory(self, tmp_path, monkeypatch):
        ckpt = self.train_relative(tmp_path, monkeypatch)
        simulate_small(Path("sim"), seed=9)
        assert run(["eval", "--checkpoint", str(ckpt), "--out", "out"]) == 0
        assert (tmp_path / "elsewhere" / "out" / "metrics.csv").read_bytes() == \
            (tmp_path / "reference" / "metrics.csv").read_bytes()

    def test_rejects_an_input_changed_since_training(self, tmp_path, monkeypatch, capsys):
        ckpt = self.train_relative(tmp_path, monkeypatch)
        simulate_small(tmp_path / "sim", seed=9)
        assert run(["eval", "--checkpoint", str(ckpt), "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert "speed.csv" in err and "sha256" in err


def resave(path, edit):
    """Write the .npz file at path again with its arrays passed through edit."""
    with np.load(path) as saved:
        arrays = {key: saved[key] for key in saved.files}
    with open(path, "wb") as fh:
        np.savez(fh, **edit(arrays))


# Ways a saved series can fail to match the run; eval then parses the CSV.
STALE_SERIES = {
    "deleted": lambda path: path.unlink(),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "empty": lambda path: path.write_bytes(b""),
    "not an npz": lambda path: path.write_bytes(b"series\n"),
    "another digest": lambda path: resave(path, lambda a: {**a, "sha256_speed": np.array("0" * 64)}),
    "no digest": lambda path: resave(path, lambda a: {k: v for k, v in a.items() if k != "sha256_speed"}),
    "wrong sensor count": lambda path: resave(
        path, lambda a: {**a, "values": a["values"][:, 1:], "mask": a["mask"][:, 1:]}
    ),
}


class TestSavedSeries:
    """train saves the series it parsed, with its CSV's digest, as
    series.npz next to the checkpoint. eval reads that file instead of the
    speed CSV only when the CSV is inherited from the training manifest and
    the file records the manifest's digest; the outputs are the same."""

    OUTPUTS = ("metrics.csv", "residuals_hour.csv")

    @pytest.fixture
    def ingests(self, monkeypatch):
        """The paths cli.ingest_csv is called with."""
        calls = []
        monkeypatch.setattr(cli, "ingest_csv", lambda path, **kw: calls.append(path) or ingest_csv(path, **kw))
        return calls

    def trained(self, tmp_path):
        simulate_small(tmp_path / "sim", steps=400)
        return train_small(tmp_path / "sim", tmp_path / "run")

    def evaluate(self, ckpt, out, *flags):
        assert run(["eval", "--checkpoint", str(ckpt), "--residuals", "hour",
                    "--out", str(out), *flags]) == 0
        return [(out / name).read_bytes() for name in self.OUTPUTS]

    def test_train_saves_the_series_it_parsed(self, tmp_path, ingests):
        ckpt = self.trained(tmp_path)
        series = ingest_csv(tmp_path / "sim" / "speed.csv")
        record = read_manifest_records(tmp_path / "run" / "manifest.txt")[-1]
        with np.load(ckpt.parent / "series.npz", allow_pickle=False) as saved:
            assert str(saved["sha256_speed"]) == record["sha256_speed"]
            for key in ("values", "mask", "timestamps"):
                assert saved[key].dtype == getattr(series, key).dtype
                np.testing.assert_array_equal(saved[key], getattr(series, key))
        assert ingests == [str(tmp_path / "sim" / "speed.csv")]
        assert sorted(p.name for p in ckpt.parent.iterdir()) == \
            ["history.csv", "manifest.txt", "model.ckpt", "series.npz"]

    def test_eval_reads_a_matching_file_instead_of_the_csv(self, tmp_path, ingests, capsys):
        ckpt = self.trained(tmp_path)
        speed = tmp_path / "sim" / "speed.csv"
        ingests.clear()
        capsys.readouterr()
        cached = self.evaluate(ckpt, tmp_path / "cached")
        assert ingests == []
        assert f"speed series read from {ckpt.parent / 'series.npz'}" in capsys.readouterr().out
        # An explicit --speed parses the CSV even when the file matches it.
        assert self.evaluate(ckpt, tmp_path / "flag", "--speed", str(speed)) == cached
        assert ingests == [str(speed)]
        assert f"speed series read from {speed}" in capsys.readouterr().out

    @pytest.mark.parametrize("stale", list(STALE_SERIES))
    def test_eval_parses_the_csv_without_a_matching_file(self, tmp_path, ingests, stale):
        ckpt = self.trained(tmp_path)
        cached = self.evaluate(ckpt, tmp_path / "cached")
        STALE_SERIES[stale](ckpt.parent / "series.npz")
        ingests.clear()
        assert self.evaluate(ckpt, tmp_path / "parsed") == cached
        assert len(ingests) == 1

    def test_eval_writes_no_series_file(self, tmp_path):
        ckpt = self.trained(tmp_path)
        (ckpt.parent / "series.npz").unlink()
        self.evaluate(ckpt, ckpt.parent)
        self.evaluate(ckpt, tmp_path / "eval")
        assert not (ckpt.parent / "series.npz").exists()
        assert not (tmp_path / "eval" / "series.npz").exists()

    def test_manifest_records_the_digest_of_the_bytes_parsed(self, tmp_path, monkeypatch, capsys):
        """A speed file replaced while the model trains is recorded with the
        digest of the file that was read, so eval refuses the new one."""
        speed, _ = simulate_small(tmp_path / "sim", steps=400)
        original = cli._sha256(speed)
        simulate_small(tmp_path / "other", seed=9, steps=400)
        real_train = cli.train

        def train_while_replacing(*args, **kwargs):
            speed.write_bytes((tmp_path / "other" / "speed.csv").read_bytes())
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_while_replacing)
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        assert cli._sha256(speed) != original
        assert read_manifest_records(tmp_path / "run" / "manifest.txt")[-1]["sha256_speed"] == original
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")]) == 1
        assert "does not match the training manifest" in capsys.readouterr().err


class TestSpeedDigest:
    """train hashes the speed CSV's bytes as it parses them, so the file is
    read once and may be a pipe."""

    def train(self, speed, adjacency, out):
        """train on speed; the sha256_speed its manifest records."""
        assert run([
            "train", "--model", "gmn", "--n", "2", "--missing-rate", "0.2", "--batch-size", "32",
            "--seed", "5", "--speed", str(speed), "--adjacency", str(adjacency), "--out", str(out),
        ]) == 0
        return read_manifest_records(out / "manifest.txt")[-1]["sha256_speed"]

    def test_digest_is_the_files_with_a_mark(self, tmp_path):
        speed, adjacency = simulate_small(tmp_path / "sim", steps=400)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + speed.read_bytes())
        for path, out in ((speed, "plain"), (marked, "marked")):
            assert self.train(path, adjacency, tmp_path / out) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert (tmp_path / "plain" / "model.ckpt").read_bytes() == (tmp_path / "marked" / "model.ckpt").read_bytes()

    def test_digest_is_the_files_when_the_csv_module_carries_on(self, tmp_path, monkeypatch):
        """A quote in the second group of pieces turns that group down, and
        the csv module reads the file's rest; all of it is hashed."""
        speed, adjacency = simulate_small(tmp_path / "sim", steps=400)
        lines = speed.read_bytes().split(b"\r\n")
        cells = lines[45].split(b",")
        lines[45] = b",".join(cells[:2] + [b'"' + cells[2] + b'"'] + cells[3:])
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b"\r\n".join(lines))
        monkeypatch.setattr(data_module, "_PIECE_BYTES", 1024)
        monkeypatch.setenv("GRAPHMARKOV_THREADS", "2")
        assert len(b"\r\n".join(lines[:45])) // 2048 == 1  # the second group of two pieces
        starts = []
        read_rows = data_module._read_rows
        monkeypatch.setattr(
            data_module, "_read_rows", lambda path, rows, first, width, t, stop=None:
                starts.append(t) or read_rows(path, rows, first, width, t, stop)
        )
        digest = self.train(quoted, adjacency, tmp_path / "run")
        assert starts[0] == 0 and 2 < starts[1] < 45  # the head, then the rest from the second group
        assert digest == hashlib.sha256(quoted.read_bytes()).hexdigest()

    def test_train_from_a_pipe_writes_the_checkpoint_of_the_file(self, tmp_path):
        speed, adjacency = simulate_small(tmp_path / "sim", steps=400)
        text = speed.read_bytes()

        def write(fd):
            view = memoryview(text)
            while view:
                view = view[os.write(fd, view) :]
            os.close(fd)

        from_file = self.train(speed, adjacency, tmp_path / "file")
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=write, args=(write_end,))
        writer.start()
        try:
            from_pipe = self.train(f"/dev/fd/{read_end}", adjacency, tmp_path / "pipe")
        finally:
            os.close(read_end)
            writer.join()
        assert from_pipe == from_file == hashlib.sha256(text).hexdigest()
        for name in ("model.ckpt", "history.csv"):
            assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestInfluence:
    def test_writes_ranked_csv(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run", n=2)
        code = run([
            "influence", "--checkpoint", str(ckpt),
            "--adjacency", str(tmp_path / "sim" / "adjacency.csv"),
            "--k", "2", "--top", "3", "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        lines = (tmp_path / "run" / "influence.csv").read_text().splitlines()
        assert lines[0] == "rank,vertex,score"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        assert "rank" in capsys.readouterr().out

    def test_rejects_out_of_range_step(self, tmp_path, capsys):
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run", n=2)
        code = run([
            "influence", "--checkpoint", str(ckpt),
            "--adjacency", str(tmp_path / "sim" / "adjacency.csv"),
            "--k", "99", "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "outside" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        simulate_small(tmp_path / "sim")
        config = tmp_path / "run.cfg"
        config.write_text(
            "# experiment defaults\n"
            "model=gmn\n"
            "n=4\n"
            "missing-rate=0.1\n"
            f"speed={tmp_path / 'sim' / 'speed.csv'}\n"
            f"adjacency={tmp_path / 'sim' / 'adjacency.csv'}\n"
            f"out={tmp_path / 'cfg_run'}\n"
        )
        code = run(["train", "--config", str(config), "--n", "2"])
        assert code == 0
        record = read_manifest_records(tmp_path / "cfg_run" / "manifest.txt")[-1]
        assert record["n"] == "2"  # explicit flag beat the config value
        assert record["missing_rate"] == "0.1"  # config value applied

    def test_unknown_config_key_is_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("volume=11\n")
        code = run(["train", "--config", str(config), "--model", "gmn",
                    "--speed", "s.csv", "--adjacency", "a.csv", "--out", "o"])
        assert code == 1
        assert "volume" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["n=0", "gamma=1.5", "missing-rate=1.0", "n=abc"])
    def test_rejected_config_value_is_single_line_error(self, tmp_path, capsys, line):
        """A value the flag's type rejects names the config file and key."""
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        code = run(["train", "--config", str(config), "--model", "gmn",
                    "--speed", "s.csv", "--adjacency", "a.csv", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        key = line.partition("=")[0].replace("-", "_")
        assert str(config) in err and repr(key) in err

    def test_config_value_outside_the_choices_is_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("model=lstm\n")
        code = run(["train", "--config", str(config), "--speed", "s.csv", "--adjacency", "a.csv",
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: config key 'model': 'lstm' not one of ['gmn', 'sgmn']\n"
        )

    def test_malformed_config_line_is_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a pair\n")
        code = run(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "key=value" in capsys.readouterr().err


class TestManifest:
    def test_records_append_and_round_trip(self, tmp_path):
        simulate_small(tmp_path / "sim")
        train_small(tmp_path / "sim", tmp_path / "sim")
        records = read_manifest_records(tmp_path / "sim" / "manifest.txt")
        assert [r["command"] for r in records] == ["simulate", "train"]
        assert all("started" in r and "finished" in r for r in records)


    # Keys of each command's record, in order: the manifest format that
    # scripts reading earlier runs' manifests rely on.
    RECORD_KEYS = {
        "simulate": ["command", "started", "version", "numpy", "blas", "threads",
                     "nodes", "steps", "gamma", "noise", "seed",
                     "out_speed", "out_adjacency", "sha256_speed", "sha256_adjacency",
                     "finished"],
        "train": ["command", "started", "version", "numpy", "blas", "threads",
                  "model", "n", "gamma", "missing_rate", "batch_size",
                  "lr", "seed", "split", "speed", "adjacency", "sha256_speed",
                  "sha256_adjacency", "out_checkpoint", "out_history", "epochs", "best_epoch",
                  "finished"],
        "eval": ["command", "started", "version", "numpy", "blas", "threads",
                 "checkpoint", "sha256_checkpoint", "speed", "adjacency",
                 "missing_rate", "seed", "split", "out_metrics", "residuals", "out_residuals",
                 "finished"],
        "influence": ["command", "started", "version", "numpy", "blas", "threads",
                      "checkpoint", "sha256_checkpoint", "adjacency", "k",
                      "mode", "top", "out_influence", "finished"],
    }

    def test_record_keys_in_order(self, tmp_path):
        run_dir = tmp_path / "sim"
        simulate_small(run_dir, steps=400)
        ckpt = train_small(run_dir, run_dir)
        assert run(["eval", "--checkpoint", str(ckpt), "--residuals", "hour",
                    "--out", str(run_dir)]) == 0
        assert run(["influence", "--checkpoint", str(ckpt),
                    "--adjacency", str(run_dir / "adjacency.csv"), "--out", str(run_dir)]) == 0
        records = read_manifest_records(run_dir / "manifest.txt")
        assert [r["command"] for r in records] == list(self.RECORD_KEYS)
        for record in records:
            assert list(record) == self.RECORD_KEYS[record["command"]]

    @pytest.mark.parametrize("threads", ["3", None], ids=["set", "unset"])
    def test_records_what_produced_the_run(self, tmp_path, monkeypatch, threads):
        """Package, numpy and BLAS versions, and the thread count that sets
        the speed reader's threads: GRAPHMARKOV_THREADS, else the usable CPUs."""
        if threads is None:
            monkeypatch.delenv("GRAPHMARKOV_THREADS", raising=False)
        else:
            monkeypatch.setenv("GRAPHMARKOV_THREADS", threads)
        simulate_small(tmp_path)
        record = read_manifest_records(tmp_path / "manifest.txt")[0]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record["version"] == importlib.import_module("graphmarkov").__version__
        assert record["numpy"] == np.__version__
        assert record["blas"] == f"{blas['name']} {blas['version']}"
        assert record["threads"] == (threads or str(len(os.sched_getaffinity(0))))

    @pytest.mark.parametrize(
        "setting, threads",
        [("1.5", None), ("0", None), ("\u00b2", None), (" 02 ", 2)],
        ids=["1.5", "0", "superscript-2", "padded-2"],
    )
    def test_blas_threads_follow_the_recorded_rule(self, setting, threads):
        """In a fresh process, GRAPHMARKOV_THREADS reaches the BLAS variables
        only when the thread count the manifest records takes it."""
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        env = {key: value for key, value in os.environ.items() if key not in blas}
        env["GRAPHMARKOV_THREADS"] = setting
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
        code = "import os; from graphmarkov import data; print([os.environ.get(k) for k in %r], data._thread_count())"
        out = subprocess.run(
            [sys.executable, "-c", code % (blas,)], env=env, capture_output=True, text=True, check=True
        ).stdout
        expected = [None if threads is None else str(threads)] * len(blas)
        assert out == f"{expected} {threads or len(os.sched_getaffinity(0))}\n"

    def test_input_paths_are_relative_to_the_manifest(self, tmp_path, monkeypatch):
        """Commands run from another directory with relative input paths
        record each input so that the manifest's directory joined with it
        is the input file."""
        simulate_small(tmp_path / "sim")
        ckpt = train_small(tmp_path / "sim", tmp_path / "run")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run(["eval", "--checkpoint", "../run/model.ckpt", "--out", "eval"]) == 0
        assert run(["influence", "--checkpoint", "../run/model.ckpt",
                    "--adjacency", "../sim/adjacency.csv", "--out", "influence"]) == 0
        inputs = {"checkpoint": ckpt, "speed": tmp_path / "sim" / "speed.csv",
                  "adjacency": tmp_path / "sim" / "adjacency.csv"}
        for out, keys in (("eval", ("checkpoint", "speed", "adjacency")),
                          ("influence", ("checkpoint", "adjacency"))):
            manifest_dir = tmp_path / "elsewhere" / out
            record = read_manifest_records(manifest_dir / "manifest.txt")[-1]
            for key in keys:
                assert (manifest_dir / record[key]).resolve() == inputs[key].resolve(), (out, key)


def load_tracing():
    """The benchmark's tracing module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkTargets:
    # Tracer targets named after functions the package no longer has.
    ABSENT = {
        ("graphmarkov.training", "batch_from_samples"),
        ("graphmarkov.evaluation", "batch_from_samples"),
        ("graphmarkov.training", "forward"),
        ("graphmarkov.training", "backward"),
        ("graphmarkov.evaluation", "forward"),
        ("graphmarkov.checkpoint", "hop_masks"),
        ("graphmarkov.checkpoint", "spectral_basis"),
    }

    def test_stage_functions_resolve_in_cli(self):
        """The benchmark measures setup_s up to the first call of a stage
        function, looked up by name in graphmarkov.cli; a stage renamed or
        inlined there would silently turn setup_s into the whole command."""
        tracing = load_tracing()
        assert tracing.STAGES
        for module, attr, _ in tracing.STAGES:
            assert module == "graphmarkov.cli"
            assert callable(getattr(cli, attr, None)), attr

    def test_layer_targets_resolve(self):
        """Every per-layer target of the traced run but the known absent ones
        is a callable where it is looked up; a function renamed or inlined
        there would silently read 0 in the trace."""
        layers = {(module, attr) for module, attr, _ in load_tracing().LAYERS}
        assert self.ABSENT <= layers
        for module, attr in sorted(layers - self.ABSENT):
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
