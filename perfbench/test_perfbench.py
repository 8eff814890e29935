"""Tests of the benchmark itself (not of stabring).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


def fixture_job(command: str, tmp: Path, name: str = "delay_plant") -> jobs.Job:
    pid = f"fixture.{name}"
    plant = inputs.write_plants(ROOT, [pid], tmp)[pid]
    return jobs.Job(f"{command} {pid}", command, jobs.argv_for(command, plant, None))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        for seed in (0, 1, 7, 12345):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                ids = list(inputs.seed_plant_ids(seed).values())
                first = inputs.write_plants(ROOT, ids, Path(a))
                second = inputs.write_plants(ROOT, ids, Path(b))
                for pid in ids:
                    self.assertEqual(first[pid].read_bytes(), second[pid].read_bytes())
            self.assertEqual(inputs.choose_variants(seed), inputs.choose_variants(seed))

    def test_seeds_change_the_inputs(self):
        drawn = {tuple(sorted(inputs.choose_variants(seed).items())) for seed in range(10)}
        self.assertGreater(len(drawn), 1)

    def test_every_variant_has_a_reference(self):
        for pid in inputs.all_plant_ids():
            if pid in REFS["plants"]:
                self.assertEqual(inputs.sha256(inputs.plant_content(ROOT, pid)),
                                 REFS["plants"][pid], pid)
        for seed in range(20):
            ids = inputs.seed_plant_ids(seed)
            with tempfile.TemporaryDirectory() as tmp:
                for workload in jobs.WORKLOADS:
                    for job in jobs.build_jobs(workload, ids, Path(tmp)):
                        self.assertIn(job.key, REFS["jobs"])

    def test_fixtures_are_copied_unchanged(self):
        for name in inputs.FIXTURES:
            self.assertEqual(inputs.plant_content(ROOT, f"fixture.{name}"),
                             (ROOT / "fixtures" / f"{name}.json").read_bytes())


class TracerTest(unittest.TestCase):
    def _originals(self):
        return {(mod, attr): value
                for mod, attr, value in self._bindings()}

    @staticmethod
    def _bindings():
        from stabring import cli  # noqa: F401 - loads every stabring module
        from stabring.groebner import IdealHandle
        from stabring.matrixring import Mat

        out = []
        for name, mod in sorted(sys.modules.items()):
            if name == "stabring" or name.startswith("stabring."):
                out += [(name, attr, value) for attr, value in vars(mod).items()
                        if callable(value)]
        for cls in (IdealHandle, Mat):
            out += [(cls.__name__, attr, value) for attr, value in vars(cls).items()]
        return out

    def test_restores_originals_and_outputs_match(self):
        before = self._originals()
        with tempfile.TemporaryDirectory() as tmp:
            job_list = [fixture_job("gef", Path(tmp)), fixture_job("synth", Path(tmp)),
                        fixture_job("check", Path(tmp), "xy_plant")]
            plain = [jobs.run_job(j, REFS["jobs"]) for j in job_list]
            tracer = layers.Tracer()
            with tracer:
                cli, gef = sys.modules["stabring.cli"], sys.modules["stabring.gef"]
                groebner = sys.modules["stabring.groebner"]
                self.assertTrue(hasattr(cli.gef, "__perfbench_original__"))
                self.assertTrue(hasattr(gef.gef, "__perfbench_original__"))
                self.assertTrue(hasattr(groebner.IdealHandle.is_unit,
                                        "__perfbench_original__"))
                traced = [jobs.run_job(j, REFS["jobs"]) for j in job_list]
        self.assertEqual(before, self._originals())
        for a, b in zip(plain, traced):
            self.assertEqual(a.status, "ok", a)
            self.assertEqual(b.status, "ok", b)
            self.assertEqual(a.digest, b.digest)
        metrics = tracer.layer_metrics(sum(o.seconds for o in traced))
        self.assertGreater(metrics["groebner.buchberger.calls"], 0)
        self.assertGreater(metrics["synth.verify_stabilizing.calls"], 0)
        self.assertEqual(metrics["gef.index_sets"], 3 + 3 + 2)

    def test_self_time_subtracts_children(self):
        tracer = layers.Tracer()
        tracer.spans = [layers.Span(0, "synth.synthesize", None, 0.0, 10.0),
                        layers.Span(1, "synth.verify_stabilizing", 0, 1.0, 7.0),
                        layers.Span(2, "matrixring.det", 1, 2.0, 3.0)]
        metrics = tracer.layer_metrics(10.0)
        self.assertAlmostEqual(metrics["synth.self_s"], 4.0 + 5.0)
        self.assertAlmostEqual(metrics["matrixring.self_s"], 1.0)
        self.assertAlmostEqual(metrics["synth.verify_stabilizing.s"], 6.0)
        self.assertAlmostEqual(metrics["trace.coverage"], 1.0)


class FailureCountTest(unittest.TestCase):
    def test_wrong_digest_and_timeout_are_counted(self):
        with tempfile.TemporaryDirectory() as tmp:
            job = fixture_job("gef", Path(tmp))
            good = jobs.run_job(job, REFS["jobs"])
            wrong = dict(REFS["jobs"])
            wrong[job.key] = dict(wrong[job.key], stdout_sha256="0" * 64)
            bad_digest = jobs.run_job(job, wrong)
            wrong[job.key] = dict(REFS["jobs"][job.key], exit=1)
            bad_exit = jobs.run_job(job, wrong)
            timed_out = jobs.run_job(job, REFS["jobs"], cap_s=0.001)
        self.assertEqual(good.status, "ok")
        self.assertEqual(bad_digest.status, "wrong_digest")
        self.assertEqual(bad_exit.status, "wrong_exit")
        self.assertEqual(timed_out.status, "timeout")
        attempted, failed, mismatched = jobs.tally([good, bad_digest, bad_exit, timed_out])
        self.assertEqual((attempted, len(failed)), (4, 3))
        self.assertEqual(mismatched, 1)  # the timed-out job printed nothing

    def test_a_raising_job_is_a_failure(self):
        from stabring import cli

        def boom(argv):
            raise RuntimeError("injected")

        original, cli.main = cli.main, boom
        try:
            outcome = jobs.run_job(jobs.Job("gef x", "gef", ("gef", "x")), REFS["jobs"])
        finally:
            cli.main = original
        self.assertEqual(outcome.status, "raised")


if __name__ == "__main__":
    unittest.main()
