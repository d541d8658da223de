"""Alarm-verification benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload drain --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md):

- ``drain``: a pre-filled log drained by fresh consumers, back to back;
- ``ingest``: an open-loop generator at 1 000 alarms/s, consumed by
  back-to-back ``run_available`` calls (one window per call), with each
  window's alarms appended to the history by ``Collection.insert_many``.

Every run checks its outputs (the correctness gate) and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Progress lines
go to standard error.
"""
import time

T_PROCESS = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from feed import N_PARTITIONS, SEGMENT  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("drain", "ingest")
DATA_SF, DATA_SEED = 0.01, 11  # fixed data set: ~1.7 K-row training split
HISTORY_SF, HISTORY_SEED = 0.1, 12  # ingest's starting history, 35 K alarms
REPARTITION = 16
DRAIN_ALARMS = 100_000  # per drain
WARM_ALARMS, WARM_ID0 = 5_000, 1_000_000_001  # per warm-up call on ingest
SERIAL_ALARMS, SERIAL_ID0 = 20_000, 2_000_000_001  # traced one-thread drain
# Warm-up calls: (calls compared, most calls). drain warms on its own
# backlog, call against call; ingest on a small log, 3 calls against 3.
WARM_DRAIN, WARM_INGEST = (1, 4), (3, 7)
WARM_FALLING = 0.97  # still warming while the last calls beat those before by more
DRIVER_MEMORY = "2g"
TRAIN_FITS = 5  # warm refits timed for train_s
CORES = 3  # Spark task threads; on 4 vCPUs one is left to the JIT, GC and driver
CALL_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170


def note(msg: str) -> None:
    """A progress line on standard error, stamped with seconds since start."""
    print(f"[perfbench {time.perf_counter() - T_PROCESS:6.2f}s] {msg}",
          file=sys.stderr, flush=True)


def pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def warm_enough(times: list[float], k: int, max_calls: int) -> bool:
    """Warm-up ends once per-call time stops falling.

    The test compares the median of the last ``k`` calls with the median
    of the ``k`` before them. Small calls vary by about 10 %, so they are
    compared three against three; a whole drain varies by a few percent
    and is compared call against call.
    """
    if len(times) >= max_calls:
        return True
    return (len(times) >= 2 * k and
            median(times[-k:]) >= WARM_FALLING * median(times[-2 * k:-k]))


def start_spark(work: Path):
    """A local session configured like the test suite, writing only
    below ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.session.timeZone", "UTC")
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def machine_info(spark) -> dict:
    import pyspark

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "unknown")
    jvm = spark.sparkContext._jvm.java.lang.System
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "spark_driver_memory": DRIVER_MEMORY,
        "spark_master": spark.sparkContext.master,
        "pyspark": pyspark.__version__,
        "jvm": f"{jvm.getProperty('java.vm.name')} {jvm.getProperty('java.version')}",
        "python": sys.version.split()[0],
    }


def vm_hwm_mb(pid) -> float:
    """Peak resident set of a process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM"))
    return kb / 1024


def jvm_gc(spark) -> tuple[float, int]:
    """(seconds, collections) summed over the JVM's GC MXBeans."""
    mf = spark.sparkContext._jvm.java.lang.management.ManagementFactory
    beans = mf.getGarbageCollectorMXBeans()
    return (sum(b.getCollectionTime() for b in beans) / 1000,
            sum(b.getCollectionCount() for b in beans))


@dataclass
class Call:
    """One ``run_available`` call and what it verified."""

    window: int
    log: object  # the broker.log.PartitionedLog the call read
    out: str
    wall_start: float
    wall_end: float
    metrics: object  # streaming.consumer.ConsumerMetrics
    phase: str  # warmup | measured | final
    expected: range | None  # a drain's alarm ids; None for stream windows
    history_files: list[str]  # the history as it stood before the call
    lag: int = 0
    progress: list[dict] = field(default_factory=list)


@dataclass
class Feed:
    """What was fed to the consumer, and how the feed itself behaved."""

    logs: list = field(default_factory=list)
    produced: int = 0  # stream alarms (ingest); drains carry their own ids
    dumps_s: float = 0.0
    dumped: int = 0
    write_s: list[float] = field(default_factory=list)  # per backlog or tick
    ticks: list[dict] | None = None  # the generator's records (ingest)
    late: list[float] = field(default_factory=lambda: [0.0])


class Bench:
    """State of one benchmark run."""

    def __init__(self, args, work: Path) -> None:
        from spans import NullTracer, ProgressListener, Tracer

        self.args = args
        self.work = work
        self.spark = start_spark(work)
        self.tracer = Tracer() if args.trace else NullTracer()
        self.listener = None
        if args.trace:
            self.listener = ProgressListener()
            self.spark.streams.addListener(self.listener)
        self.feed = Feed()
        self.calls: list[Call] = []
        self.generate_s = 0.0
        self.fit_s = 0.0  # the cold fit in set-up
        self.train_s = 0.0  # warm refits after the measured calls
        self.insert_s: list[float] = []
        self.t_measure = 0.0
        self.gc_start = (0.0, 0)

    def rng(self, stream: int):
        import numpy as np

        return np.random.default_rng([self.args.seed, stream])

    # -- set-up ---------------------------------------------------------
    def generate(self, sf: float, seed: int):
        from repro.datasets import sitasys

        with self.tracer.span("datasets.generate"):
            t0 = time.perf_counter()
            pdf = sitasys.generate_pandas(sf=sf, seed=seed, basel_exact=False)
            self.generate_s += time.perf_counter() - t0
        return pdf

    def fit(self):
        from repro.core import verifier

        with self.tracer.span("core.train"):
            t0 = time.perf_counter()
            vm = verifier.train(self.train, algo="rf", dataset="sitasys", fast=True)
            return vm, time.perf_counter() - t0

    def load_model(self):
        """Fit the RF verifier on the fixed training split.

        The fit uses ``verifier.train``'s small budget (``fast=True``: 10
        trees, depth 8): the Table 3 budget (50 trees, depth 30) costs
        12-14 s on a cold JVM, which the per-run time budget cannot hold.

        Returns the split without its label; the test split becomes the
        pool the alarm stream is drawn from (``self.pool``).
        """
        from repro.broker.producer import alarms_to_records
        from repro.core import labeling, verifier

        df = self.spark.createDataFrame(self.generate(DATA_SF, DATA_SEED))
        train, test = verifier.split(df, seed=DATA_SEED)
        self.train = labeling.with_label(train).cache()
        self.train.count()
        self.pool = test.toPandas()
        self.pool_records = alarms_to_records(self.pool)
        self.vm, self.fit_s = self.fit()
        note(f"fitted in {self.fit_s:.2f} s")
        return self.train.drop(labeling.LABEL_COL)

    def open_history(self, docs) -> None:
        from repro.docstore.store import DocumentStore

        self.history = DocumentStore(self.work / "store").collection("alarms")
        self.insert(docs)

    def insert(self, docs, window: int | None = None) -> None:
        with self.tracer.span("docstore.insert_many", window):
            t0 = time.perf_counter()
            self.history.insert_many(self.spark, docs)
            self.insert_s.append(time.perf_counter() - t0)

    def make_log(self, name: str, first_id: int, n: int, rng, n_partitions=N_PARTITIONS):
        """A log pre-filled by ``PartitionedLog.write`` with ``n`` pool
        alarms, ids from ``first_id``.

        Returns the log, the serializer (it holds the ``dumps`` time) and
        the seconds ``write`` took.
        """
        from feed import TimedSerializer, sample_alarms
        from repro.broker.log import PartitionedLog

        records = sample_alarms(self.pool_records, first_id, n, rng)
        log = PartitionedLog(self.work / name, n_partitions)
        ser = TimedSerializer()
        with self.tracer.span("broker.write"):
            t0 = time.perf_counter()
            log.write(records, ser, records_per_segment=SEGMENT)
            write_s = time.perf_counter() - t0
        self.feed.logs.append(log)
        return log, ser, write_s

    # -- consuming ------------------------------------------------------
    def call(self, log, out: Path, ckpt: Path, phase: str,
             expected: range | None) -> Call:
        from repro.streaming import consumer

        k = len(self.calls)
        before = sorted(str(p) for p in self.history.path.glob("part-*"))
        n_progress = len(self.listener.progress) if self.listener else 0
        wall = time.time()
        with self.tracer.span("consumer.run_available", k):
            m = consumer.run_available(
                self.spark, log, self.vm, self.history, str(out), str(ckpt),
                repartition=REPARTITION, timeout_s=CALL_TIMEOUT_S,
            )
        c = Call(k, log, str(out), wall, time.time(), m, phase, expected, before)
        if self.listener:
            self.listener.wait_terminated(k + 1)
            c.progress = self.listener.progress[n_progress:]
        self.calls.append(c)
        note(f"{phase} call {k}: {m.n_alarms} alarms in {m.elapsed_s:.2f} s")
        return c

    def drain(self, log, phase: str, expected: range) -> Call:
        """A fresh consumer (own checkpoint and sink) over a whole log."""
        d = self.work / f"drain{len(self.calls)}"
        return self.call(log, d / "out", d / "ckpt", phase, expected)

    def warm_up(self, log, ids: range, k: int, max_calls: int) -> None:
        """Drain ``log`` with fresh consumers until per-call time stops
        falling."""
        times: list[float] = []
        while not warm_enough(times, k, max_calls):
            times.append(self.drain(log, "warmup", ids).metrics.elapsed_s)

    def measure(self, step) -> None:
        """Call ``step("measured")`` for ``--seconds`` seconds; a call
        started in time runs to its end."""
        self.t_measure = time.perf_counter()
        if self.tracer.enabled:
            self.gc_start = jvm_gc(self.spark)
        while time.perf_counter() - self.t_measure < self.args.seconds:
            step("measured")

    def measured(self) -> list[Call]:
        return [c for c in self.calls if c.phase == "measured"]


# -- workloads ------------------------------------------------------------
def run_drain(b: Bench) -> None:
    """Pre-filled backlog, drained by fresh consumers back to back."""
    b.open_history(b.load_model())
    log, ser, write_s = b.make_log("log", 1, DRAIN_ALARMS, b.rng(0))
    b.feed.dumps_s, b.feed.dumped, b.feed.write_s = ser.seconds, ser.count, [write_s]

    ids = range(1, DRAIN_ALARMS + 1)
    b.warm_up(log, ids, *WARM_DRAIN)
    b.measure(lambda phase: b.drain(log, phase, ids))


def run_ingest(b: Bench) -> None:
    """Open loop at ``RATE`` alarms/s, one ``run_available`` per window;
    each window's alarms are then appended to the history."""
    from feed import read_ticks
    from pyspark.sql import functions as F
    from repro.broker.log import PartitionedLog
    from repro.streaming.consumer import ALARM_STREAM_SCHEMA

    pool_path, ticks_path = b.work / "pool.parquet", b.work / "ticks.jsonl"
    log = PartitionedLog(b.work / "log", N_PARTITIONS)
    b.feed.logs.append(log)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    gen = subprocess.Popen(  # starts its schedule on "go"
        [sys.executable, str(HERE / "feed.py"), "--log", str(log.root),
         "--pool", str(pool_path), "--ticks", str(ticks_path),
         "--seed", str(b.args.seed)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
    )
    verified = 0

    def window(phase: str) -> Call:
        nonlocal verified
        c = b.call(log, b.work / "out" / f"call={len(b.calls):04d}", b.work / "ckpt",
                   phase, None)
        verified += c.metrics.n_alarms
        c.lag = sum(t["n"] for t in read_ticks(ticks_path)) - verified
        if c.metrics.n_alarms:
            sink = b.spark.read.parquet(c.out)
            b.insert(sink.select(*[F.col(col).cast("timestamp") if col == "ts" else col
                                   for col in hist_cols]).coalesce(1), c.window)
        return c

    try:
        b.load_model()
        hist_pdf = b.generate(HISTORY_SF, HISTORY_SEED)
        b.open_history(hist_pdf)
        hist_cols = [c for c in hist_pdf.columns if c in ALARM_STREAM_SCHEMA.names]
        b.pool.to_parquet(pool_path)
        # Warm up before the open loop starts, so that no backlog queues
        # behind the cold calls.
        warm_log, _, _ = b.make_log("warm_log", WARM_ID0, WARM_ALARMS, b.rng(1))
        b.warm_up(warm_log, range(WARM_ID0, WARM_ID0 + WARM_ALARMS), *WARM_INGEST)
        gen.stdin.write("go\n")
        gen.stdin.flush()
        deadline = time.monotonic() + 30
        while not (ticks_path.exists() and read_ticks(ticks_path)):
            if gen.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("alarm generator did not start")
            time.sleep(0.05)
        window("warmup")  # one segment; the next window has the steady size
        b.measure(window)
    finally:
        gen.stdin.close()
        gen.send_signal(signal.SIGTERM)
        try:
            gen.wait(timeout=15)
        except subprocess.TimeoutExpired:
            gen.kill()
            gen.wait()
    ticks = b.feed.ticks = read_ticks(ticks_path)
    b.feed.produced = sum(t["n"] for t in ticks)
    for _ in range(3):
        if verified >= b.feed.produced:
            break
        window("final")
    b.feed.dumps_s = sum(t["dumps_s"] for t in ticks)
    b.feed.dumped = b.feed.produced
    b.feed.write_s = [t["dumps_s"] + t["append_s"] for t in ticks]
    b.feed.late = [t["start"] - t["due"] for t in ticks]


# -- checking -------------------------------------------------------------
def read_sinks(b: Bench):
    """Every call's sink rows, tagged with the call's window id."""
    from functools import reduce

    from pyspark.sql import functions as F

    frames = [
        b.spark.read.parquet(c.out).select(
            F.lit(c.window).alias("window"), "alarm_id", "verification",
            "confidence", "past_alarms", "active_days", "device_mac", "duration_s",
            (F.unix_micros(F.col("_metadata.file_modification_time")) / 1e6)
            .alias("mtime"),
        )
        for c in b.calls if c.metrics.n_alarms
    ]
    return reduce(lambda x, y: x.unionByName(y), frames).toPandas()


def check(b: Bench, rows) -> tuple[int, int, dict]:
    """The correctness gate: (attempted, failed, failures by kind).

    Every drain's sink must hold each alarm of its log exactly once, and
    the stream windows together each alarm produced exactly once; every
    row must carry the batch verifier's verdict and confidence, and the
    DuckDB oracle's ``past_alarms`` / ``active_days`` over the history
    files as they stood before that call.
    """
    import duckdb
    import pandas as pd
    from pyspark.sql import functions as F

    from repro.core import verifier
    from repro.streaming.consumer import ALARM_STREAM_SCHEMA

    logs = b.spark.read.schema(ALARM_STREAM_SCHEMA).json(
        [log.glob_path() for log in b.feed.logs])
    ref = verifier.verify(b.vm, logs).select(
        "alarm_id", F.col("verification").alias("ref_v"),
        F.col("confidence").alias("ref_c"),
    ).toPandas()

    fail = {"null_id": int(rows["alarm_id"].isna().sum()), "lost": 0,
            "duplicated": 0, "unexpected": 0}
    groups = [(c.expected, rows[rows["window"] == c.window])
              for c in b.calls if c.expected is not None]
    stream = [c.window for c in b.calls if c.expected is None]
    if stream:
        groups.append((range(1, b.feed.produced + 1), rows[rows["window"].isin(stream)]))
    for expected, g in groups:
        ids = g["alarm_id"].dropna().astype("int64")
        fail["duplicated"] += int(len(ids) - ids.nunique())
        present = set(ids)
        fail["lost"] += len(set(expected) - present)
        fail["unexpected"] += len(present - set(expected))

    merged = rows.merge(ref, on="alarm_id", how="left")
    bad_verdict = (merged["verification"] != merged["ref_v"]) | ~(
        (merged["confidence"] - merged["ref_c"]).abs() <= 1e-9)
    snapshots: dict[tuple, list[int]] = {}
    for c in b.calls:
        snapshots.setdefault(tuple(c.history_files), []).append(c.window)
    con = duckdb.connect()
    try:
        oracle = []
        for files, windows in snapshots.items():
            hist = con.execute(
                "SELECT device_mac, count(*) AS o_past, "
                "count(DISTINCT CAST(ts AS DATE)) AS o_days "
                "FROM read_parquet(?) GROUP BY device_mac", [list(files)]).fetchdf()
            oracle += [hist.assign(window=w) for w in windows]
    finally:
        con.close()
    merged = merged.merge(pd.concat(oracle), on=["window", "device_mac"], how="left")
    merged[["o_past", "o_days"]] = merged[["o_past", "o_days"]].fillna(0)
    bad_history = (merged["past_alarms"] != merged["o_past"]) | (
        merged["active_days"] != merged["o_days"])
    fail.update(verdict_mismatch=int(bad_verdict.sum()),
                history_mismatch=int(bad_history.sum()))
    attempted = sum(len(expected) for expected, _ in groups)
    failed = (fail["null_id"] + fail["lost"] + fail["duplicated"] + fail["unexpected"]
              + int((bad_verdict | bad_history).sum()))
    return attempted, failed, fail


# -- metrics --------------------------------------------------------------
def end_to_end(b: Bench, rows, setup_s: float, rss_mb: float) -> dict:
    from feed import due_times

    measured = b.measured()
    m_rows = rows[rows["window"].isin([c.window for c in measured])]
    if b.feed.ticks is None:  # a backlog is due when its drain starts
        due = m_rows["window"].map({c.window: c.wall_start for c in measured})
        # capacity: the median drain's rate
        alarms_per_s = median([c.metrics.alarms_per_s for c in measured])
    else:
        due = due_times(b.feed.ticks, m_rows["alarm_id"])
        # an open loop cannot run faster than its feed: the sustained rate
        alarms_per_s = (sum(c.metrics.n_alarms for c in measured)
                        / (measured[-1].wall_end - measured[0].wall_start))
    latency = (m_rows["mtime"] - due).to_numpy()
    per_call = (m_rows["mtime"] - due).groupby(m_rows["window"]).median()
    note("measured calls' median latency: "
         + " ".join(f"{w}:{v:.2f}s" for w, v in per_call.items()))
    accuracy = (rows["verification"] == (rows["duration_s"] >= b.vm.delta_t_s)).mean()
    print(f"measured: {len(measured)} calls, "
          f"{sum(c.metrics.n_alarms for c in measured)} alarms; "
          f"latency p50/p99 over {len(latency)} alarms")
    return {
        "alarms_per_s": (alarms_per_s, "1/s"),
        "latency_p50_s": (pct(latency, 50), "s"),
        "latency_p99_s": (pct(latency, 99), "s"),
        "setup_s": (setup_s, "s"),
        "train_s": (b.train_s, "s"),
        "accuracy_pct": (100 * float(accuracy), "%"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(b: Bench, e2e: dict) -> dict:
    """Layer metrics; the probes below run after the measured calls."""
    from repro.core import verifier
    from repro.streaming import consumer

    gc_s, gc_n = jvm_gc(b.spark)
    measured = b.measured()
    ms = [c.metrics for c in measured]

    def progress_ms(key: str) -> float:
        return median([sum(p["durationMs"].get(key, 0) for p in c.progress)
                       for c in measured])

    last = measured[-1]
    window = b.spark.read.parquet(last.out).select(
        *consumer.ALARM_STREAM_SCHEMA.names).cache()
    n_window = window.count()
    devices = [r[0] for r in window.select("device_mac").distinct().collect()]
    verify_s, hist_s = [], []
    for _ in range(3):
        with b.tracer.span("core.verify.noop", last.window):
            t0 = time.perf_counter()
            verifier.verify(b.vm, window).write.format("noop").mode("overwrite").save()
            verify_s.append(time.perf_counter() - t0)
        with b.tracer.span("docstore.device_histogram", last.window):
            t0 = time.perf_counter()
            hist = b.history.device_histogram(b.spark, devices)
            hist.count()
            hist_s.append(time.perf_counter() - t0)
    window.unpersist()
    matched = hist.agg({"n_alarms": "sum"}).first()[0] or 0
    scanned = b.history.count(b.spark)

    serial_log, _, _ = b.make_log("serial_log", SERIAL_ID0, SERIAL_ALARMS, b.rng(2),
                                  n_partitions=1)
    with b.tracer.span("consumer.run_available.serial"):
        serial = consumer.run_available(
            b.spark, serial_log, b.vm, b.history, str(b.work / "serial" / "out"),
            str(b.work / "serial" / "ckpt"), repartition=1, timeout_s=CALL_TIMEOUT_S)
    if serial.n_alarms != SERIAL_ALARMS:
        raise RuntimeError(f"serial drain verified {serial.n_alarms} of {SERIAL_ALARMS}")

    files = len(list(last.log.root.glob("partition=*/segment-*")))
    out = {
        "core.verify_rows_per_s": (n_window / median(verify_s), "1/s"),
        "core.score_sink_s": (median([m.time_ml_s for m in ms]), "s"),
        "streaming.parse_s": (median([m.time_streaming_s for m in ms]), "s"),
        "streaming.call_overhead_s": (median(
            [m.elapsed_s - m.time_streaming_s - m.time_history_s - m.time_ml_s
             for m in ms]), "s"),
        "docstore.history_s": (median([m.time_history_s for m in ms]), "s"),
        "docstore.device_histogram_s": (median(hist_s), "s"),
        "docstore.rows_kept_ratio": (matched / scanned, "ratio"),
        "docstore.insert_s": (median(b.insert_s), "s"),
        "docstore.history_rows": (scanned, "count"),
        "streaming.trigger_ms": (progress_ms("triggerExecution"), "ms"),
        "streaming.add_batch_ms": (progress_ms("addBatch"), "ms"),
        "streaming.latest_offset_ms": (progress_ms("latestOffset"), "ms"),
        "streaming.wal_commit_ms": (progress_ms("walCommit"), "ms"),
        "streaming.commit_offsets_ms": (progress_ms("commitOffsets"), "ms"),
        "streaming.query_planning_ms": (progress_ms("queryPlanning"), "ms"),
        "broker.files_total": (files, "count"),
        "broker.lag_alarms": (median([c.lag for c in measured]), "count"),
        "broker.dumps_per_s": (b.feed.dumped / b.feed.dumps_s, "1/s"),
        "broker.append_s": (median(b.feed.write_s), "s"),
        "generator.late_p99_s": (pct(b.feed.late, 99), "s"),
        "datasets.generate_s": (b.generate_s, "s"),
        "jvm.gc_s": (gc_s - b.gc_start[0], "s"),
        "jvm.gc_count": (gc_n - b.gc_start[1], "count"),
        "drain.serial_alarms_per_s": (serial.alarms_per_s, "1/s"),
    }
    out.update({f"traced.{k}": v for k, v in e2e.items()})
    return out


def run(args, work: Path) -> dict:
    b = Bench(args, work)
    try:
        note("spark started")
        print("machine: " + json.dumps(machine_info(b.spark)))
        (run_drain if args.workload == "drain" else run_ingest)(b)
        setup_s = b.t_measure - T_PROCESS - b.fit_s
        # On the warm JVM, the median of several fits: the cold fit spreads 20 %.
        b.train_s = median([b.fit()[1] for _ in range(TRAIN_FITS)])
        note("measured; checking")
        rows = read_sinks(b)
        attempted, failed, fail = check(b, rows)
        print("gate: " + json.dumps(fail))
        jvm_pid = b.spark.sparkContext._jvm.ProcessHandle.current().pid()
        rss_mb = vm_hwm_mb("self") + vm_hwm_mb(jvm_pid)
        metrics = end_to_end(b, rows, setup_s, rss_mb)
        if args.trace:
            metrics = per_layer(b, metrics)
            b.tracer.progress = b.listener.progress
            traces = WORK_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            b.tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
    finally:
        stop_spark(b.spark)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Alarm-verification benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    def on_deadline(_signum, _frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    def on_term(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGALRM, on_deadline)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_DEADLINE_S)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
