"""Command-line entry point wiring the pipeline into reproducible runs.

Every command but ``validate`` reads a flat ``key=value`` config file
and writes all artifacts into its ``out_dir``, together with a copy of
the config as ``config.txt``.  ``report`` is the exception: it writes
only ``report.txt``, because its ``out_dir`` is usually the run it
summarizes, whose config must stay intact.  Unknown config keys
are rejected; every random choice flows from explicit seeds in the
config, so re-running a command from its config reproduces its outputs
byte for byte.  On failure, partially written outputs are removed.

Commands: simulate-trigger, assess-quality, gen-corpus, train, evaluate,
cl-run, validate, report.
"""

from __future__ import annotations

import argparse
import shutil
from dataclasses import fields, replace
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

import numpy as np

from . import classifier, corpus as corpus_mod, harness, imu_trigger, replay, semantics, synth
from .classifier import TrainConfig
from .corpus import SPLIT_KINDS
from .imaging import SIGMA_RULE, center_crop_resize, load_image, log_sharpness, sigma_ok
from .replay import CLConfig, CLTricks, ReplayBuffer, Task

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class ConfigError(ValueError):
    pass


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes", "on"):
        return True
    if v.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_vec3(v: str) -> Tuple[float, float, float]:
    parts = [float(p) for p in v.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated values")
    return (parts[0], parts[1], parts[2])


def _parse_absences(raw: str) -> frozenset:
    """``3:plush,7:ceramic`` -> {(3, "plush"), (7, "ceramic")}; materials
    are slugs of the base taxonomy that ``gen-corpus`` generates."""
    cells = set()
    for part in raw.split(",") if raw else []:
        person, _, mat = part.strip().partition(":")
        if not person.isdigit() or mat not in semantics.DEFAULT_TAXONOMY.material_slugs():
            raise ValueError(f"bad absence cell {part!r}; expected person_id:material_slug")
        cells.add((int(person), mat))
    return frozenset(cells)


def _checked(parse, ok, message: str):
    def parser(v: str):
        value = parse(v)
        if not ok(value):
            raise ValueError(message)
        return value

    return parser


# key -> (parser, default); a None default marks a key with no default.
CONFIG_SCHEMA: Dict[str, Tuple[object, object]] = {
    "out_dir": (str, None),
    "seed": (int, 0),
    # trigger simulation
    "trace": (str, ""),
    "la_thresh": (_parse_vec3, (0.04, 0.04, 0.04)),
    "aa_thresh": (_parse_vec3, (0.02, 0.02, 0.02)),
    "tt": (float, 30.0),
    "debounce_n": (int, 10),
    # quality gate
    "images": (str, ""),
    "sigma": (_checked(float, sigma_ok, SIGMA_RULE), 1.0),
    "blur_threshold": (
        _checked(str, lambda v: v == "auto" or np.isfinite(float(v)), "must be 'auto' or finite"),
        "auto",
    ),
    "blur_percentile": (_checked(float, lambda x: 0 <= x <= 100, "must lie in [0, 100]"), 0.1),
    # corpus
    "corpus_manifest": (str, ""),
    "images_per_class": (int, 45),
    "side": (int, 64),
    "persons": (int, 12),
    "absences": (_parse_absences, frozenset()),  # e.g. "3:plush,7:ceramic"
    # training
    "lr0": (float, 1e-4),
    "batch": (int, 16),
    "epochs": (int, 20),
    "augment": (_parse_bool, True),
    "standardize": (_parse_bool, False),
    # records are center-crop-resized to input_side once, as they load; 0 = native
    "input_side": (_checked(int, lambda v: v >= 0, "must be >= 0"), 0),
    "checkpoint": (str, ""),
    # evaluation
    "split_kind": (
        _checked(str, lambda v: v in SPLIT_KINDS, f"must be one of {', '.join(SPLIT_KINDS)}"),
        "time_kfold",
    ),
    "k": (_checked(int, lambda v: v >= 2, "must be >= 2"), 10),
    # continual learning
    "task_stream": (str, ""),
    "buffer_seed_manifest": (str, ""),  # records streamed into the buffer before task 1
    "buffer_capacity": (_checked(int, lambda v: v >= 0, "must be >= 0"), 500),
    "gamma": (float, 0.75),
    "replay_batch": (int, 16),
    "bias_fit_fraction": (float, 0.1),
    "tricks": (str, "all"),
    # validation
    "mapping_file": (str, ""),
}


def parse_config(path: Path) -> Dict[str, object]:
    values: Dict[str, object] = {k: d for k, (_, d) in CONFIG_SCHEMA.items()}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            parser = CONFIG_SCHEMA[key][0]
            try:
                values[key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _require(cfg: Dict[str, object], key: str) -> object:
    v = cfg.get(key)
    if v is None or v == "":
        raise ConfigError(f"config key {key!r} is required for this command")
    return v


def _input_file(path: object) -> Path:
    """``path`` as a ``Path`` if it names a file.  An input file that does
    not exist is a usage error (exit 2) in every command."""
    path = Path(str(path))
    if not path.is_file():
        raise ConfigError(f"cannot read {path}: not a file")
    return path


class OutputDir:
    """Tracks files a command writes so failures clean up after themselves."""

    def __init__(self, root: Path):
        self.root = root
        self.created: List[Path] = []
        root.mkdir(parents=True, exist_ok=True)

    def path(self, rel: str) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(p)
        return p

    def cleanup(self) -> None:
        for p in reversed(self.created):
            if p.is_file():
                p.unlink(missing_ok=True)
            elif p.is_dir():
                shutil.rmtree(p, ignore_errors=True)


def _train_config(cfg: Dict[str, object]) -> TrainConfig:
    try:
        return TrainConfig(
            lr0=float(cfg["lr0"]),
            batch=int(cfg["batch"]),
            epochs=int(cfg["epochs"]),
            seed=int(cfg["seed"]),
            augment=bool(cfg["augment"]),
            standardize=bool(cfg["standardize"]),
        )
    except ValueError as exc:  # the message starts with the key at fault
        raise ConfigError(f"bad training setting: {exc}") from None


def _trigger_config(cfg: Dict[str, object]) -> imu_trigger.TriggerConfig:
    try:
        return imu_trigger.TriggerConfig(
            la_thresh=cfg["la_thresh"],  # type: ignore[arg-type]
            aa_thresh=cfg["aa_thresh"],  # type: ignore[arg-type]
            tt=float(cfg["tt"]),
            debounce_n=int(cfg["debounce_n"]),
        )
    except ValueError as exc:  # the message starts with the key at fault
        raise ConfigError(f"bad trigger setting: {exc}") from None


def _cl_config(cfg: Dict[str, object]) -> CLConfig:
    names = str(cfg["tricks"]).strip()
    if names == "all":
        tricks = CLTricks.all_on()
    elif names in ("none", ""):
        tricks = CLTricks()
    else:
        valid = {f.name for f in fields(CLTricks)}
        chosen = {n.strip() for n in names.split(",")}
        unknown = chosen - valid
        if unknown:
            raise ConfigError(f"unknown tricks: {sorted(unknown)}")
        tricks = CLTricks(**{n: True for n in chosen})
    train = _train_config(cfg)
    try:
        return CLConfig(
            train=train,
            tricks=tricks,
            gamma=float(cfg["gamma"]),
            replay_batch=int(cfg["replay_batch"]),
            bias_fit_fraction=float(cfg["bias_fit_fraction"]),
        )
    except ValueError as exc:  # the message starts with the key at fault
        raise ConfigError(f"bad replay setting: {exc}") from None


def _trace_events(
    path: str, tcfg: imu_trigger.TriggerConfig
) -> Tuple[int, List[imu_trigger.TriggerEvent]]:
    """Sample count and trigger events of the trace file at ``path``.

    The file streams line by line through the parser and the trigger, so
    when either rejects a sample, the line read last holds it: the
    ``ValueError`` then names ``path:line``.
    """
    lineno = n_samples = 0

    def lines(fp: TextIO) -> Iterator[str]:
        nonlocal lineno
        for lineno, line in enumerate(fp, start=1):
            yield line

    def counted(samples: Iterator[imu_trigger.ImuSample]) -> Iterator[imu_trigger.ImuSample]:
        nonlocal n_samples
        for n_samples, sample in enumerate(samples, start=1):
            yield sample

    with open(path, "r", encoding="utf-8") as fp:
        try:
            samples = counted(imu_trigger.read_trace(lines(fp)))
            events = list(imu_trigger.run_stream(samples, tcfg))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return n_samples, events


# --- commands ----------------------------------------------------------------


def cmd_simulate_trigger(cfg: Dict[str, object], out: OutputDir) -> int:
    tcfg = _trigger_config(cfg)
    if cfg["trace"]:
        n_samples, events = _trace_events(str(_input_file(cfg["trace"])), tcfg)
    else:
        samples = imu_trigger.demo_trace()
        n_samples, events = len(samples), list(imu_trigger.run_stream(samples, tcfg))
    with open(out.path("events.txt"), "w", encoding="utf-8") as fp:
        for ev in events:
            fp.write(imu_trigger.format_event_line(ev) + "\n")
    captures = sum(1 for e in events if e.kind is imu_trigger.EventKind.CAPTURE)
    print(f"{n_samples} samples -> {len(events)} events ({captures} captures)")
    return 0


def cmd_assess_quality(cfg: Dict[str, object], out: OutputDir) -> int:
    target = Path(str(_require(cfg, "images")))
    paths = (
        sorted(p for p in target.rglob("*") if p.suffix.lower() in (".ppm", ".pgm"))
        if target.is_dir()
        else [_input_file(target)]
    )
    if not paths:
        raise ConfigError(f"no images under {target}")
    sigma = float(cfg["sigma"])
    scores = [log_sharpness(load_image(p), sigma).log_variance for p in paths]
    thr_raw = str(cfg["blur_threshold"])
    if thr_raw == "auto":
        threshold = float(np.percentile(np.array(scores), float(cfg["blur_percentile"])))
    else:
        threshold = float(thr_raw)
    with open(out.path("quality.csv"), "w", encoding="utf-8") as fp:
        fp.write("path,log_variance,pass\n")
        for p, s in zip(paths, scores):
            fp.write(f"{p},{s:.9e},{int(s >= threshold)}\n")
    n_fail = sum(1 for s in scores if s < threshold)
    print(f"{len(paths)} images, threshold {threshold:.6e}, rejected {n_fail}")
    return 0


def cmd_gen_corpus(cfg: Dict[str, object], out: OutputDir) -> int:
    spec = synth.SynthSpec(
        rng_seed=int(cfg["seed"]),
        images_per_class=int(cfg["images_per_class"]),
        side=int(cfg["side"]),
        persons=int(cfg["persons"]),
        absences=cfg["absences"],  # type: ignore[arg-type]
    )
    generated = synth.synth_generate(spec)
    corpus_dir = out.path("corpus")
    corpus_mod.write_manifest(generated, corpus_dir, out.path("corpus/manifest.txt"))
    print(f"generated {len(generated)} images -> {corpus_dir}")
    return 0


def _sized(records, side: int) -> List[corpus_mod.SampleRecord]:
    """``records`` center-crop-resized to ``side`` (0 keeps them native)."""
    if not side:
        return list(records)
    return [replace(r, image=center_crop_resize(r.image, side)) for r in records]


def _load_corpus(cfg: Dict[str, object]) -> corpus_mod.Corpus:
    manifest = _input_file(_require(cfg, "corpus_manifest"))
    data = corpus_mod.read_manifest(manifest, manifest.parent)
    data.records = _sized(data.records, int(cfg["input_side"]))
    return data


def cmd_train(cfg: Dict[str, object], out: OutputDir) -> int:
    data = _load_corpus(cfg)
    tcfg = _train_config(cfg)
    params = classifier.init_params(
        seed=tcfg.seed,
        n_objects=data.taxonomy.n_objects,
        n_materials=data.taxonomy.n_materials,
    )
    result = classifier.train(params, data.records, tcfg)
    classifier.save_checkpoint(result.params, out.path("checkpoint.bin"))
    with open(out.path("training.csv"), "w", encoding="utf-8") as fp:
        fp.write("epoch,loss\n")
        for e, loss in enumerate(result.epoch_losses):
            fp.write(f"{e},{loss:.9e}\n")
    print(f"trained {tcfg.epochs} epochs on {len(data)} records; "
          f"final loss {result.epoch_losses[-1]:.4f}")
    return 0


def cmd_evaluate(cfg: Dict[str, object], out: OutputDir) -> int:
    data = _load_corpus(cfg)
    kind = str(cfg["split_kind"])
    plan = corpus_mod.make_split(data, kind, int(cfg["k"]))
    result = harness.run_protocol(data, plan, _train_config(cfg))
    tax = data.taxonomy
    for head, names in zip(classifier.HEADS, (tax.object_slugs(), tax.material_slugs())):
        cm = getattr(result, f"confusion_{head}")
        harness.write_confusion_csv(cm, out.path(f"confusion_{head}.csv"), names)
        harness.write_counts_csv(cm, out.path(f"confusion_{head}_counts.csv"), names)
    with open(out.path("folds.csv"), "w", encoding="utf-8") as fp:
        fp.write("fold,object,material\n")
        for f, (ao, am) in enumerate(zip(result.fold_acc_object, result.fold_acc_material)):
            fp.write(f"{f},{ao:.6f},{am:.6f}\n")
    with open(out.path("summary.txt"), "w", encoding="utf-8") as fp:
        fp.write(harness.protocol_summary(result))
    print(
        f"{kind}: object {result.mean_object:.4f} (sd {result.sd_object:.4f}), "
        f"material {result.mean_material:.4f} (sd {result.sd_material:.4f})"
    )
    return 0


def _read_task_stream(path: Path, side: int) -> List[Task]:
    """One ``task_id train_manifest eval_manifest`` line per task, manifest
    paths relative to the stream file, records resized to ``side``.  An error
    in the stream's own fields (field count, task id, a manifest that is not a
    file) names ``path:line``; errors inside a manifest are the manifest
    reader's own."""
    tasks = []
    base = path.parent
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(
                    f"{where}: expected 'task_id train_manifest eval_manifest', "
                    f"got {len(parts)} fields"
                )
            try:
                task_id = int(parts[0])
            except ValueError:
                raise ConfigError(
                    f"{where}: task id must be an integer, got {parts[0]!r}"
                ) from None
            manifests = [base / rel for rel in parts[1:]]
            for manifest in manifests:
                if not manifest.is_file():
                    raise ConfigError(f"{where}: cannot read {manifest}: not a file")
            tasks.append(Task(task_id, *(_stream_records(m, side) for m in manifests)))
    return tasks


def _stream_records(manifest: Path, side: int) -> Tuple[corpus_mod.SampleRecord, ...]:
    """A manifest's records over the base taxonomy grown with the novel classes."""
    mapping = synth.extended_mapping()
    records = corpus_mod.read_manifest(manifest, manifest.parent, mapping=mapping).records
    return tuple(_sized(records, side))


def cmd_cl_run(cfg: Dict[str, object], out: OutputDir) -> int:
    clcfg = _cl_config(cfg)
    buf = ReplayBuffer(capacity=int(cfg["buffer_capacity"]), sampling_mode=clcfg.buffer_mode())
    params = classifier.load_checkpoint(_input_file(_require(cfg, "checkpoint")))
    side = int(cfg["input_side"])
    tasks = _read_task_stream(_input_file(_require(cfg, "task_stream")), side)
    if cfg["buffer_seed_manifest"]:  # seed the buffer as harness.cl_evaluation does
        seed_records = _stream_records(_input_file(cfg["buffer_seed_manifest"]), side)
        rng = np.random.default_rng(np.random.SeedSequence((int(cfg["seed"]), 81)))
        replay.fill_from_records(buf, seed_records, rng, params)
    result = replay.cl_run(params, tasks, clcfg, buf)
    classifier.save_checkpoint(result.params, out.path("checkpoint.bin"))
    with open(out.path("metrics.csv"), "w", encoding="utf-8") as fp:
        fp.write("task_id,eval_task_id,top1_object,top1_material\n")
        for task_id, eval_id, ao, am in result.metrics:
            fp.write(f"{task_id},{eval_id},{ao:.6f},{am:.6f}\n")
    print(f"continual run over {len(tasks)} tasks; buffer holds {len(buf.records)} items")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    mapping = semantics.DEFAULT_MAPPING
    if args.mapping_file:
        try:
            mapping = semantics.MappingTable.from_file(_input_file(args.mapping_file))
        except ValueError as exc:  # the message names the file and line at fault
            raise ConfigError(str(exc)) from None
    tax = mapping.taxonomy
    try:
        obj_idx = tax.object_index(args.object)
        mat_idx = tax.material_index(args.material)
    except ValueError:
        print(f"unknown class name: {args.object!r} or {args.material!r}", file=sys.stderr)
        return USAGE_ERROR
    ok = semantics.validate_pair(obj_idx, mat_idx, mapping)
    print(f"{args.object} {args.material}: {'valid' if ok else 'invalid'}")
    return 0 if ok else 1


def cmd_report(cfg: Dict[str, object], out: OutputDir) -> int:
    root = out.root
    lines = ["run artifacts:"]
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "report.txt":
            lines.append(f"  {p.relative_to(root)} ({p.stat().st_size} bytes)")
    for name in ("summary.txt", "metrics.csv", "folds.csv", "training.csv", "quality.csv"):
        for p in sorted(root.rglob(name)):
            lines.append(f"--- {p.relative_to(root)} ---")
            lines.append(p.read_text(encoding="utf-8").rstrip())
    report = "\n".join(lines) + "\n"
    with open(out.path("report.txt"), "w", encoding="utf-8") as fp:
        fp.write(report)
    print(report, end="")
    return 0


CONFIG_COMMANDS = {
    "simulate-trigger": cmd_simulate_trigger,
    "assess-quality": cmd_assess_quality,
    "gen-corpus": cmd_gen_corpus,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "cl-run": cmd_cl_run,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfsense",
        description="Contact-surface sensing pipeline: triggers, quality gating, "
        "classification, and continual learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CONFIG_COMMANDS:
        p = sub.add_parser(name, help=f"run {name} from a config file")
        p.add_argument("config", type=Path, help="key=value config file")
    v = sub.add_parser("validate", help="check an (object, material) pair against the table")
    v.add_argument("object", help="object class slug, e.g. bed")
    v.add_argument("material", help="material class slug, e.g. plush")
    v.add_argument("--mapping-file", dest="mapping_file", default="", help="override pair list")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            return cmd_validate(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR

    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return USAGE_ERROR

    out: Optional[OutputDir] = None
    try:
        out = OutputDir(Path(str(_require(cfg, "out_dir"))))
        if args.command != "report":
            shutil.copyfile(args.config, out.path("config.txt"))
        return CONFIG_COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        if out is not None:
            out.cleanup()
        print(f"error: config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        if out is not None:
            out.cleanup()
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
