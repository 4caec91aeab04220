"""The three benchmark workloads: ``train``, ``infer`` and ``data``.

Each workload is one caller in a closed loop: set-up once, then rounds of
fixed work until the run length is spent. Every round is a pure function of
the workload seed and the round index, so a traced run can repeat exactly the
rounds its untraced part measured. Every end-to-end metric is measured on
every workload, so each workload feeds the same two throughput slots,
``stage1`` and ``stage2``, from what its rounds time:

========  ============================  =====================================
workload  stage1                        stage2
========  ============================  =====================================
train     2D training steps per second  3D training steps per second
infer     test points per second        scenes per second, run_infer+run_eval
          through run_infer
data      scenes generated per second   scenes evaluated per second, with
                                        their prediction files written
========  ============================  =====================================

Evaluating one inferred scene takes a fifth of a second, and how long depends
on how many clusters that scene's embedding yields; timed alone it spreads
too widely from seed to seed to gate on, so infer's stage2 times the whole
round a user waits for.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from bevis import checkpoint, pipeline
from bevis.config import PipelineConfig
from bevis.scene import N_CLASSES, Labeling

# Inputs the benchmark prepares or checks against are made through these
# bindings, which tracing leaves alone, so spans cover only measured work.
from bevis.cloudio import save_cloud as _save_cloud
from bevis.scene import generate_scene as _generate_scene

@dataclasses.dataclass(frozen=True)
class Sizes:
    room: float  # side of the square rooms of train (m)
    objects: int  # furniture per room of train and infer
    infer_room: float  # side of the square rooms of infer (m)
    infer_points: int  # infer test scenes are subsampled to this many points
    check_points: int  # the scene inferred twice for the determinism check
    data_rooms: tuple  # (min, max) room side of the data workload (m)
    data_objects: tuple  # (min, max) furniture per room of the data workload
    density: float  # points per square meter
    train_scenes: int  # train workload dataset: 3 train, 1 val, 1 test
    steps_2d: int  # per train_stage_2d call
    steps_3d: int  # per train_stage_3d call
    weight_steps: tuple  # (2d, 3d) steps of the set-up training for infer weights
    data_scenes: int  # scenes per data round; strict AP cost grows faster than this
    setup_repeats: int


# Input sizes are stated and fixed so that rates measure the code rather than
# the drawn room. A 4.7 m training room with 5 objects rasterizes to 95 cells
# and pads to 96. A 5.0 m test room holds 9.9k-11.8k points at the default
# density; subsampled to 9,500 it stays a default-size scene while the
# quadratic mean-shift no longer follows the drawn object sizes. The data
# workload keeps the default ranges; its 32 scenes per round average them.
FULL = Sizes(
    room=4.7,
    objects=5,
    infer_room=5.0,
    infer_points=9500,
    check_points=1000,
    data_rooms=(PipelineConfig.room_min, PipelineConfig.room_max),
    data_objects=(PipelineConfig.objects_min, PipelineConfig.objects_max),
    density=PipelineConfig.density,
    train_scenes=5,
    steps_2d=20,
    steps_3d=16,
    weight_steps=(20, 20),
    data_scenes=32,
    setup_repeats=5,
)
SMOKE = Sizes(
    room=2.4,
    objects=1,
    infer_room=2.4,
    infer_points=800,
    check_points=300,
    data_rooms=(2.4, 3.0),
    data_objects=(1, 2),
    density=40.0,
    train_scenes=5,
    steps_2d=1,
    steps_3d=1,
    weight_steps=(1, 1),
    data_scenes=3,
    setup_repeats=1,
)

WEIGHTS_SEED = 0  # infer weights are fixed; only the test scenes follow --seed


class Ledger:
    """Counts attempted and failed operations; every check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        """Run one pipeline operation; returns ``(result, seconds)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            raise
        return result, time.perf_counter() - start

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")


def base_config(sizes: Sizes, seed: int, **overrides) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        room_min=sizes.room,
        room_max=sizes.room,
        density=sizes.density,
        objects_min=sizes.objects,
        objects_max=sizes.objects,
        **overrides,
    )


def training_config(cfg: PipelineConfig, steps_2d: int, steps_3d: int) -> PipelineConfig:
    # validation runs every eval_every steps and only then can stop early;
    # past the last step it never runs, so every call makes its full count
    return dataclasses.replace(
        cfg, steps_2d=steps_2d, steps_3d=steps_3d, eval_every=max(steps_2d, steps_3d) + 1
    )


def clean(work: Path, *names: str):
    """Delete a round's files once its checks are done, so that a run does
    not leave data piling up for the disk to write back during later timings."""
    for name in names:
        shutil.rmtree(work / name, ignore_errors=True)


def mark_all_test(data_dir: Path):
    names = [name for name, _ in pipeline.read_manifest(data_dir)]
    (data_dir / pipeline.MANIFEST).write_text("".join(f"{name} test\n" for name in names))


def check_prediction_file(ledger: Ledger, path: Path, n_points: int):
    """N rows, each point index once, ids in range: a valid partition."""
    rows = np.array([line.split() for line in path.read_text().splitlines()], dtype=np.int64)
    ok = rows.shape == (n_points, 3)
    if ok:
        ok = (
            np.array_equal(np.sort(rows[:, 0]), np.arange(n_points))
            and rows[:, 1].min() >= 0
            and rows[:, 2].min() >= 0
            and rows[:, 2].max() < N_CLASSES
        )
    ledger.check(bool(ok), f"{path.name} is not a partition of {n_points} points")


def check_training(ledger: Ledger, result, steps: int, columns: int):
    ledger.check(result.steps_run == steps, f"{result.curve.name}: {result.steps_run} of {steps} steps")
    lines = result.curve.read_text().splitlines()[1:]
    values = np.array([line.split(",")[1:] for line in lines], dtype=np.float64)
    ledger.check(
        values.shape == (steps, columns) and bool(np.all(np.isfinite(values))),
        f"{result.curve.name}: missing or non-finite losses",
    )


def over_segment(cloud, seed: int) -> Labeling:
    """Ground truth cut into spatially coherent pieces, about 2 per instance.

    Each instance is split into 1 to 3 pieces (2 on average) by cuts across a
    random horizontal direction; classes stay as in the ground truth.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(len(cloud), dtype=np.int64)
    next_id = 0
    for inst in np.unique(cloud.gt_instance):
        members = np.flatnonzero(cloud.gt_instance == inst)
        pieces = int(rng.integers(1, 4))
        angle = rng.uniform(0.0, np.pi)
        proj = cloud.xyz[members, 0:2] @ np.array([np.cos(angle), np.sin(angle)])
        cuts = np.sort(rng.uniform(0.0, 1.0, pieces - 1)) * len(members)
        rank = np.empty(len(members))
        rank[np.argsort(proj, kind="stable")] = np.arange(len(members))
        out[members] = next_id + np.searchsorted(cuts, rank, side="right")
        next_id += pieces
    return Labeling(cloud.gt_semantic, out)


# ---------------------------------------------------------------------------


class Workload:
    """Set-up once, then ``round(r)`` until the run length is spent."""

    def __init__(self, sizes: Sizes, seed: int, work: Path, ledger: Ledger):
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.setup_times: list[float] = []
        self.stage1 = [0.0, 0.0]  # [work units, seconds]
        self.stage2 = [0.0, 0.0]
        self.details: dict[str, tuple] = {}

    def setup(self):
        raise NotImplementedError

    def round(self, r: int, tag: str):
        raise NotImplementedError

    def finish(self):
        """After the untraced rounds: checks that need the whole run, and the
        rates under the names each workload's users know them by."""

    def add(self, stage, units, seconds):
        stage[0] += units
        stage[1] += seconds

    @staticmethod
    def rate(stage) -> float:
        return stage[0] / stage[1] if stage[1] > 0 else 0.0


class Train(Workload):
    def setup(self):
        s = self.sizes
        cfg = base_config(s, self.seed, n_scenes=s.train_scenes)
        self.cfg = training_config(cfg, s.steps_2d, s.steps_3d)
        for i in range(s.setup_repeats):
            start = time.perf_counter()
            self.ledger.call(pipeline.generate_dataset, self.cfg, self.work / f"data{i}")
            self.setup_times.append(time.perf_counter() - start)
            if i:
                clean(self.work, f"data{i}")
        self.data = self.work / "data0"

    def round(self, r, tag):
        s, ledger = self.sizes, self.ledger
        cfg = dataclasses.replace(self.cfg, seed=self.seed * 1000 + r)
        out = self.work / f"run{r}{tag}"
        r2, dt2 = ledger.call(pipeline.train_stage_2d, cfg, self.data, out)
        check_training(ledger, r2, s.steps_2d, 3)
        r3, dt3 = ledger.call(pipeline.train_stage_3d, cfg, self.data, out, r2.checkpoint)
        check_training(ledger, r3, s.steps_3d, 2)
        self.add(self.stage1, s.steps_2d, dt2)
        self.add(self.stage2, s.steps_3d, dt3)
        clean(self.work, f"run{r}{tag}")

    def finish(self):
        self.details = {
            "train2d_steps_per_s": (self.rate(self.stage1), "1/s", "higher"),
            "train3d_steps_per_s": (self.rate(self.stage2), "1/s", "higher"),
        }


class Infer(Workload):
    def setup(self):
        s, ledger = self.sizes, self.ledger
        start = time.perf_counter()
        wcfg = training_config(
            base_config(s, WEIGHTS_SEED, n_scenes=s.train_scenes), *s.weight_steps
        )
        train_data = self.work / "train_data"
        ledger.call(pipeline.generate_dataset, wcfg, train_data)
        r2, _ = ledger.call(pipeline.train_stage_2d, wcfg, train_data, self.work / "weights")
        r3, _ = ledger.call(
            pipeline.train_stage_3d, wcfg, train_data, self.work / "weights", r2.checkpoint
        )
        self.ckpts = (r2.checkpoint, r3.checkpoint)
        self.setup_times.append(time.perf_counter() - start)
        self.cfg = dataclasses.replace(
            base_config(s, self.seed), room_min=s.infer_room, room_max=s.infer_room
        )
        self.predictions: dict[int, bytes] = {}
        self.scene_s: list[float] = []
        self.eval_s: list[float] = []
        self.quality: list[tuple] = []

    def test_scene(self, r: int, n_points: int, name: str) -> tuple[Path, int]:
        """A one-scene test split: scene r of this seed, subsampled to n_points."""
        cfg = dataclasses.replace(self.cfg, seed=self.seed * 1000 + r)
        cloud = _generate_scene(pipeline.scene_spec_for(cfg, 0))
        rng = np.random.default_rng([cfg.seed, n_points])
        keep = np.sort(rng.choice(len(cloud), size=min(n_points, len(cloud)), replace=False))
        data = self.work / name
        data.mkdir()
        _save_cloud(data / "scene_000.bevpc", cloud.select(keep))
        (data / pipeline.MANIFEST).write_text("scene_000.bevpc test\n")
        return data, len(keep)

    def infer(self, data: Path, n_points: int, name: str):
        """run_infer on a one-scene split; returns (prediction bytes, seconds)."""
        written, dt = self.ledger.call(pipeline.run_infer, self.cfg, data, self.work / name, *self.ckpts)
        check_prediction_file(self.ledger, written[0], n_points)
        return written[0].read_bytes(), dt

    def round(self, r, tag):
        ledger = self.ledger
        data, n_points = self.test_scene(r, self.sizes.infer_points, f"test{r}{tag}")
        predicted, dt = self.infer(data, n_points, f"pred{r}{tag}")
        result, dte = ledger.call(pipeline.run_eval, self.cfg, self.work / f"pred{r}{tag}", data, self.work / f"eval{r}{tag}")
        self.add(self.stage1, n_points, dt)
        self.add(self.stage2, n_points, dt + dte)
        self.scene_s.append(dt)
        self.eval_s.append(dte)
        # a traced pass repeats round r and must predict the same bytes
        reference = self.predictions.setdefault(r, predicted)
        ledger.check(predicted == reference, f"round {r}{tag} predictions differ from the first pass")
        quality = (result.ap_report.ap50, result.semantic.miou)
        ledger.check(all(0.0 <= q <= 1.0 for q in quality), f"metrics out of range: {quality}")
        self.quality.append(quality)
        clean(self.work, f"test{r}{tag}", f"pred{r}{tag}", f"eval{r}{tag}")

    def finish(self):
        """Two passes over one small scene must give byte-identical predictions."""
        data, n_points = self.test_scene(0, self.sizes.check_points, "check")
        first, _ = self.infer(data, n_points, "check_pred0")
        second, _ = self.infer(data, n_points, "check_pred1")
        self.ledger.check(first == second, "two passes over one scene predicted different bytes")
        ap50, miou = (statistics.median(q) for q in zip(*self.quality))
        self.details = {
            "infer_points_per_s": (self.rate(self.stage1), "1/s", "higher"),
            "infer_scene_s_p50": (statistics.median(self.scene_s), f"s(n={len(self.scene_s)})", "lower"),
            "eval_scenes_per_s": (len(self.eval_s) / sum(self.eval_s), "1/s", "higher"),
            "ap50": (ap50, f"ratio(p50,n={len(self.quality)})", "higher"),
            "miou": (miou, f"ratio(p50,n={len(self.quality)})", "higher"),
        }


class Data(Workload):
    def setup(self):
        s, ledger = self.sizes, self.ledger
        # the default room range here: many scenes per round average it out
        self.cfg = dataclasses.replace(
            base_config(s, self.seed, n_scenes=s.data_scenes),
            room_min=s.data_rooms[0],
            room_max=s.data_rooms[1],
            objects_min=s.data_objects[0],
            objects_max=s.data_objects[1],
        )
        ref_cfg = dataclasses.replace(self.cfg, seed=self.seed * 1000 + 999)
        for i in range(s.setup_repeats):
            start = time.perf_counter()
            # the reference set for the ground-truth self-check, and a
            # checkpoint as training writes it: weights, running stats, Adam
            ledger.call(pipeline.generate_dataset, ref_cfg, self.work / f"ref{i}")
            net = pipeline.build_net3d(self.cfg)
            opt = pipeline.Adam(net.params(), pipeline.adam_config(self.cfg))
            arrays = {name: p.data for name, p in net.params().items()}
            arrays.update(net.state())
            arrays.update(opt.state_arrays())
            self.setup_times.append(time.perf_counter() - start)
            if i:
                clean(self.work, f"ref{i}")
        self.ref = (ref_cfg, self.work / "ref0")
        self.arrays = arrays

    def round(self, r, tag):
        s, ledger = self.sizes, self.ledger
        cfg = dataclasses.replace(self.cfg, seed=self.seed * 1000 + r)
        data = self.work / f"data{r}{tag}"
        _, dtg = ledger.call(pipeline.generate_dataset, cfg, data)
        self.add(self.stage1, s.data_scenes, dtg)
        mark_all_test(data)
        scenes, _ = ledger.call(pipeline.load_split, data, "test")
        for i, (name, cloud) in enumerate(scenes):
            fresh = _generate_scene(pipeline.scene_spec_for(cfg, i))
            ledger.check(
                np.array_equal(cloud.points, fresh.points)
                and np.array_equal(cloud.gt_semantic, fresh.gt_semantic)
                and np.array_equal(cloud.gt_instance, fresh.gt_instance),
                f"{name} did not round-trip bit-exactly",
            )

        pred = self.work / f"pred{r}{tag}"
        pred.mkdir()
        labelings = [over_segment(cloud, seed=cfg.seed * 1000 + i) for i, (_, cloud) in enumerate(scenes)]
        start = time.perf_counter()
        for (name, _), labeling in zip(scenes, labelings):
            ledger.call(pipeline.save_prediction, pred / f"{Path(name).stem}.pred.txt", labeling)
        result, _ = ledger.call(pipeline.run_eval, cfg, pred, data, self.work / f"eval{r}{tag}")
        self.add(self.stage2, s.data_scenes, time.perf_counter() - start)
        for name, cloud in scenes:
            check_prediction_file(ledger, pred / f"{Path(name).stem}.pred.txt", len(cloud))
        ledger.check(0.0 < result.ap_report.ap50 <= 1.0, f"ap50 {result.ap_report.ap50} of an over-segmentation")
        ledger.check(result.semantic.miou == 1.0, f"miou {result.semantic.miou} with ground-truth classes")

        path = self.work / f"ckpt{r}{tag}.bevis"
        ledger.call(checkpoint.save_arrays, path, self.arrays)
        loaded, _ = ledger.call(checkpoint.load_arrays, path)
        ledger.check(
            loaded.keys() == self.arrays.keys()
            and all(loaded[k].tobytes() == np.asarray(v, dtype=np.float64).tobytes() for k, v in self.arrays.items()),
            "checkpoint did not round-trip bit-exactly",
        )
        clean(self.work, f"data{r}{tag}", f"pred{r}{tag}", f"eval{r}{tag}")
        path.unlink()

    def finish(self):
        """Ground truth scored against itself must give AP 1 and mIoU 1."""
        ledger = self.ledger
        cfg, data = self.ref
        mark_all_test(data)
        scenes, _ = ledger.call(pipeline.load_split, data, "test")
        pred = self.work / "pred_gt"
        pred.mkdir()
        for name, cloud in scenes:
            labeling = Labeling(cloud.gt_semantic, cloud.gt_instance)
            ledger.call(pipeline.save_prediction, pred / f"{Path(name).stem}.pred.txt", labeling)
        result, _ = ledger.call(pipeline.run_eval, cfg, pred, data, self.work / "eval_gt")
        # AP sums recall steps, so it may miss 1 by rounding
        ap = (result.ap_report.strict_mean, result.ap_report.ap50)
        ledger.check(all(abs(a - 1.0) < 1e-9 for a in ap), f"ground truth against itself: AP {ap}")
        ledger.check(result.semantic.miou == 1.0, f"ground truth against itself: mIoU {result.semantic.miou}")
        self.details = {
            "gen_scenes_per_s": (self.rate(self.stage1), "1/s", "higher"),
            "eval_scenes_per_s": (self.rate(self.stage2), "1/s", "higher"),
        }


CLASSES = {"train": Train, "infer": Infer, "data": Data}
