//! The traced run: the producer and follower layers driven by hand, one
//! block at a time, with a span around every call into a layer.
//!
//! Spans live in memory and are written out when the run ends. Each
//! records its name, start, end and parent, and carries the block number
//! as the id its block's spans share. Two kinds of span are not part of
//! any block's own time:
//!
//! * *reported* spans are durations the program measured itself
//!   (`MinerStats.elapsed`, `ValidationReport.elapsed`), placed at the
//!   start of the span of the call that returned them;
//! * *estimate* spans time side calls that repeat work `Engine::mine_on`
//!   does inside (`World::state_root`, `Block::build`, the block codec),
//!   so they estimate a share of `miner.mine_on` and stay out of the
//!   self-time sum.

use crate::report::{self, Metric};
use crate::run::{self, ms, Setting, Tally, DURABILITY};
use crate::workload::Inputs;
use crate::{Options, Outcome};
use cc_core::node::{DurabilityConfig, Node};
use cc_core::{Engine, ExecutionStrategy, FollowerConfig, MinedBlock, PendingChain};
use cc_ledger::wal::{Wal, WAL_FILE};
use cc_ledger::{Block, Blockchain, SnapshotFile};
use cc_mempool::Mempool;
use cc_vm::World;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a span's time counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Timed around a call the untraced path makes too.
    Call,
    /// A duration the program reported for part of its parent call.
    Reported,
    /// A side call repeating work done inside another call.
    Estimate,
}

/// One traced interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `miner.mine_on`.
    pub name: &'static str,
    /// The block this span belongs to.
    pub block: u64,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// How the span's time counts.
    pub kind: SpanKind,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn push(
        &mut self,
        name: &'static str,
        block: u64,
        parent: Option<usize>,
        kind: SpanKind,
    ) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            block,
            start: now,
            end: now,
            parent,
            kind,
        });
        self.spans.len() - 1
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, block: u64, parent: Option<usize>) -> usize {
        self.push(name, block, parent, SpanKind::Call)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span of `kind`; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        block: u64,
        parent: Option<usize>,
        kind: SpanKind,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.push(name, block, parent, kind);
        let result = f();
        self.close(id);
        (result, self.spans[id].duration())
    }

    /// Records a duration the program measured inside span `parent`.
    pub fn reported(&mut self, name: &'static str, parent: usize, duration: Duration) {
        let (block, start) = (self.spans[parent].block, self.spans[parent].start);
        self.spans.push(Span {
            name,
            block,
            start,
            end: start + duration,
            parent: Some(parent),
            kind: SpanKind::Reported,
        });
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover. Estimate spans are listed under their own names and
    /// subtract from nothing.
    pub fn self_times(&self) -> BTreeMap<&'static str, (SpanKind, Duration)> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let (Some(parent), false) = (span.parent, span.kind == SpanKind::Estimate) {
                children[parent] += span.duration();
            }
        }
        let mut totals: BTreeMap<&'static str, (SpanKind, Duration)> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            let entry = totals
                .entry(span.name)
                .or_insert((span.kind, Duration::ZERO));
            entry.1 += span.duration().saturating_sub(covered);
        }
        totals
    }

    /// Writes every span as a tab-separated line.
    ///
    /// # Errors
    ///
    /// Any I/O error writing `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\tblock\tstart_us\tend_us\tparent\tkind\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{parent}\t{:?}",
                span.name,
                span.block,
                span.start.as_micros(),
                span.end.as_micros(),
                span.kind
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Per-layer samples collected across rounds.
#[derive(Debug, Default)]
struct Samples {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    fn add_ms(&mut self, name: &'static str, duration: Duration) {
        self.add(name, ms(duration));
    }

    fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        report::median(self.get(name)).unwrap_or(f64::NAN)
    }

    fn mean(&self, name: &str) -> f64 {
        let samples = self.get(name);
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// Per-layer metrics read straight from their samples: `(name, unit,
/// mean)`. Counts that are often zero report their mean per block, so a
/// rare event still shows; everything else reports its median.
const LAYER_METRICS: [(&str, &str, bool); 28] = [
    ("mempool.submit_us", "us", false),
    ("mempool.build_block_ms", "ms", false),
    ("miner.mine_ms", "ms", false),
    ("miner.execute_ms", "ms", false),
    ("miner.retries_per_block", "count", true),
    ("miner.lock_waits_per_block", "count", true),
    ("miner.deadlocks_per_block", "count", true),
    ("miner.speedup_vs_serial", "x", false),
    ("schedule.critical_path", "txn", false),
    ("schedule.hb_edges", "count", false),
    ("schedule.parallelism", "x", false),
    ("commit.state_root_ms", "ms", false),
    ("commit.block_build_ms", "ms", false),
    ("codec.encode_ms", "ms", false),
    ("codec.decode_ms", "ms", false),
    ("codec.block_bytes", "B", false),
    ("wal.seal_ms", "ms", false),
    ("wal.bytes_per_block", "B", false),
    ("wal.snapshot_ms", "ms", false),
    ("pipeline.stalled_ms", "ms", false),
    ("follower.stalled_ms", "ms", false),
    ("pipeline.snapshots", "count", false),
    ("validator.validate_ms", "ms", false),
    ("validator.replay_ms", "ms", false),
    ("validator.speedup_vs_serial", "x", false),
    ("pending.speculate_ms", "ms", false),
    ("pending.commit_ms", "ms", false),
    ("node.recover_ms", "ms", false),
];

/// The traced run: rounds of the untraced passes (for the pipeline
/// stalls and the untraced baseline) plus a by-hand producer, by-hand
/// followers and a recovery, until `options.seconds` have passed.
///
/// # Errors
///
/// A message when a ledger directory cannot be set up.
pub fn run(
    setting: &Setting,
    inputs: &Inputs,
    options: &Options,
    header: Vec<String>,
) -> Result<Outcome, String> {
    let mut budget = crate::Budget::new(options.seconds);
    let mut tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut untraced_block_ms = Vec::new();
    let mut rounds = 0;
    while budget.another(rounds) {
        let mut round = run::round(setting, inputs, &format!("round-{rounds}"))
            .map_err(|e| format!("cannot build a node: {e}"))?;
        samples.add_ms("pipeline.stalled_ms", round.pipeline.stalled);
        samples.add_ms("follower.stalled_ms", round.follower.stalled);
        samples.add("pipeline.snapshots", round.pipeline.snapshots as f64);
        untraced_block_ms.extend(&round.mine_ms);
        tally.absorb(std::mem::take(&mut round.tally));

        let dir = setting.dir.join(format!("traced-{rounds}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let produced = produce(setting, inputs, &dir, &mut tracer, &mut samples, &mut tally)
            .map_err(|e| format!("traced producer: {e}"))?;
        follow(
            setting,
            inputs,
            &produced,
            &mut tracer,
            &mut samples,
            &mut tally,
        );
        rounds += 1;
        if !tally.errors.is_empty() || tally.failed > 0 {
            break;
        }
    }

    let spans_path = options
        .dir
        .join(format!("spans-{}-seed{}.tsv", inputs.kind, inputs.seed));
    tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let untraced = report::median(&untraced_block_ms).unwrap_or(f64::NAN);
    let traced = samples.median("block");
    let committed = samples.sum("miner.committed");
    let useful = committed / (committed + samples.sum("miner.retries_per_block"));
    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, per_block_mean)| {
            let value = if per_block_mean {
                samples.mean(name)
            } else {
                samples.median(name)
            };
            Metric::new(name, unit, value)
        })
        .collect();
    metrics.push(Metric::new("miner.useful_ratio", "ratio", useful));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        "%",
        (traced / untraced - 1.0) * 100.0,
    ));

    let mut notes = vec![format!(
        "# traced rounds={rounds} blocks={} spans={} written to {}",
        samples.get("block").len(),
        tracer.spans.len(),
        spans_path.display()
    )];
    notes.extend(self_time_table(&tracer));
    Ok(Outcome {
        header,
        notes,
        tally,
        metrics,
    })
}

/// Self time per span name, with each producer-side call's share of the
/// producer's block time and each follower-side call's share of the
/// follower's block time.
fn self_time_table(tracer: &Tracer) -> Vec<String> {
    let totals = tracer.self_times();
    let total_of = |root: &str| -> Duration {
        tracer
            .spans
            .iter()
            .filter(|span| span.name == root)
            .map(Span::duration)
            .sum()
    };
    let mut lines =
        vec!["# self time            span                       total_ms   share".to_string()];
    for (root, names) in [
        (
            "block",
            &[
                "block",
                "mempool.build_block",
                "miner.mine_on",
                "miner.execute",
                "wal.seal",
                "wal.snapshot",
                "commit.state_root",
                "commit.block_build",
                "codec.encode",
                "codec.decode",
            ][..],
        ),
        (
            "follow.block",
            &["follow.block", "validator.validate", "validator.replay"][..],
        ),
        (
            "pending.block",
            &["pending.speculate", "pending.commit"][..],
        ),
    ] {
        let total = ms(total_of(root));
        for name in names {
            let Some((kind, time)) = totals.get(name) else {
                continue;
            };
            let label = match kind {
                SpanKind::Call => "self",
                SpanKind::Reported => "reported",
                SpanKind::Estimate => "estimate",
            };
            lines.push(format!(
                "# {label:<9} of {root:<13} {name:<24} {:>10.1} {:>6.1}%",
                ms(*time),
                ms(*time) / total * 100.0
            ));
        }
    }
    lines
}

/// Writes a snapshot of `chain`'s head and resets the WAL, as a durable
/// node does every `DEFAULT_SNAPSHOT_INTERVAL` blocks.
fn snapshot(dir: &Path, chain: &Blockchain, world: &World, wal: &Wal) -> Result<(), String> {
    let head = chain.head();
    SnapshotFile {
        height: head.header.number,
        block_hash: head.hash(),
        state_root: head.header.state_root,
        blocks: chain.iter().cloned().collect(),
        world_bytes: world.snapshot().to_bytes(),
    }
    .write_to(dir)
    .map_err(|e| e.to_string())?;
    wal.reset().map_err(|e| e.to_string())
}

/// The by-hand producer: mempool, miner, WAL seal and snapshots one call
/// at a time, with a serial replica mining every batch for the speedup.
/// Returns the produced blocks.
fn produce(
    setting: &Setting,
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<Vec<Block>, String> {
    let engine = &setting.engine;
    let world = inputs.build_world();
    let wal = Arc::new(Wal::create(dir.join(WAL_FILE), DURABILITY).map_err(|e| e.to_string())?);
    world.stm().lock_manager().attach_durability(wal.clone());
    world.mvcc().attach_durability(wal.clone());
    let mut chain = Blockchain::with_genesis_state(world.state_root());
    snapshot(dir, &chain, &world, &wal)?;
    let mempool = Mempool::new(run::mempool_config(inputs));
    let interval = DurabilityConfig::DEFAULT_SNAPSHOT_INTERVAL;

    let stream = inputs.transactions.clone();
    let (refused, _) = tracer.time("mempool.submit_all", 0, None, SpanKind::Call, || {
        let mut refused = 0;
        for tx in stream {
            let start = Instant::now();
            let submitted = mempool.submit(tx);
            samples.add("mempool.submit_us", start.elapsed().as_secs_f64() * 1e6);
            refused += usize::from(submitted.is_err());
        }
        refused
    });
    tally.check(refused == 0, || {
        format!("traced producer's mempool refused {refused} transactions")
    });

    let mut executed = Vec::new();
    while mempool.stats().ready > 0 {
        let number = chain.head().header.number + 1;
        let parent = chain.head_hash();
        let block_span = tracer.open("block", number, None);
        let (batch, took) = tracer.time(
            "mempool.build_block",
            number,
            Some(block_span),
            SpanKind::Call,
            || mempool.build_block(inputs.gas_limit()),
        );
        samples.add_ms("mempool.build_block_ms", took);
        let mine_span = tracer.open("miner.mine_on", number, Some(block_span));
        let mined = engine.mine_on(&world, batch, parent, number);
        tracer.close(mine_span);
        let MinedBlock { block, stats } = match mined {
            Ok(mined) => mined,
            Err(e) => {
                tally
                    .errors
                    .push(format!("traced mining of block {number} failed: {e}"));
                break;
            }
        };
        tracer.reported("miner.execute", mine_span, stats.elapsed);
        samples.add_ms("miner.mine_ms", tracer.spans[mine_span].duration());
        samples.add_ms("miner.execute_ms", stats.elapsed);
        if let Err(e) = chain.append(block.clone()) {
            tally.errors.push(format!(
                "traced block {number} does not extend the chain: {e}"
            ));
            break;
        }
        let before = wal.written_len();
        let (sealed, took) =
            tracer.time("wal.seal", number, Some(block_span), SpanKind::Call, || {
                wal.seal_block(&block)
            });
        sealed.map_err(|e| e.to_string())?;
        samples.add_ms("wal.seal_ms", took);
        samples.add("wal.bytes_per_block", (wal.written_len() - before) as f64);
        if number.is_multiple_of(interval) {
            let (written, took) = tracer.time(
                "wal.snapshot",
                number,
                Some(block_span),
                SpanKind::Call,
                || snapshot(dir, &chain, &world, &wal),
            );
            written?;
            samples.add_ms("wal.snapshot_ms", took);
        }
        tracer.close(block_span);
        samples.add_ms("block", tracer.spans[block_span].duration());

        // Side calls: shares of work `mine_on` and `seal_block` did inside.
        let (root, took) = tracer.time(
            "commit.state_root",
            number,
            None,
            SpanKind::Estimate,
            || world.state_root(),
        );
        samples.add_ms("commit.state_root_ms", took);
        tally.check(root == block.header.state_root, || {
            format!("traced block {number} commits to a state root its world does not have")
        });
        let parts = (
            block.transactions.clone(),
            block.receipts.clone(),
            block.schedule.clone(),
        );
        let (rebuilt, took) = tracer.time(
            "commit.block_build",
            number,
            None,
            SpanKind::Estimate,
            || Block::build(parent, number, parts.0, parts.1, root, parts.2),
        );
        samples.add_ms("commit.block_build_ms", took);
        tally.check(rebuilt.hash() == block.hash(), || {
            format!("Block::build does not reproduce traced block {number}")
        });
        let (bytes, took) = tracer.time("codec.encode", number, None, SpanKind::Estimate, || {
            block.to_checked_bytes()
        });
        samples.add_ms("codec.encode_ms", took);
        samples.add("codec.block_bytes", bytes.len() as f64);
        let (decoded, took) = tracer.time("codec.decode", number, None, SpanKind::Estimate, || {
            Block::from_checked_bytes(&bytes)
        });
        samples.add_ms("codec.decode_ms", took);
        tally.check(decoded.is_ok_and(|d| d.hash() == block.hash()), || {
            format!("traced block {number} does not survive an encode/decode round trip")
        });

        // Layer counters.
        let txns = block.transactions.len() as f64;
        samples.add("miner.committed", txns);
        samples.add("miner.retries_per_block", stats.retries as f64);
        samples.add("miner.lock_waits_per_block", stats.locks.waits as f64);
        samples.add("miner.deadlocks_per_block", stats.locks.deadlocks as f64);
        samples.add("schedule.critical_path", stats.critical_path as f64);
        samples.add("schedule.hb_edges", stats.hb_edges as f64);
        samples.add(
            "schedule.parallelism",
            txns / stats.critical_path.max(1) as f64,
        );
        executed.push(stats.elapsed);
    }

    // The paper's Table 1 ratio: the same batches on a serial engine, in a
    // pass of their own so the replica's world never shares the caches
    // with a traced block.
    let serial = Engine::serial();
    let replica = inputs.build_world();
    for (block, parallel) in chain.iter().skip(1).zip(&executed) {
        let number = block.header.number;
        match serial.mine_on(
            &replica,
            block.transactions.clone(),
            block.header.parent_hash,
            number,
        ) {
            Ok(baseline) => samples.add(
                "miner.speedup_vs_serial",
                baseline.stats.elapsed.as_secs_f64() / parallel.as_secs_f64(),
            ),
            Err(e) => {
                tally
                    .errors
                    .push(format!("serial replica of block {number} failed: {e}"));
                break;
            }
        }
    }
    drop(replica);

    let n = inputs.transactions.len();
    let landed = chain.total_transactions();
    tally.pass(n, n.saturating_sub(landed));
    tally.check(landed == n, || {
        format!("traced producer made {landed} of {n} transactions durable")
    });
    let reverted = chain
        .iter()
        .flat_map(|block| &block.receipts)
        .filter(|receipt| !receipt.succeeded())
        .count();
    tally.check(reverted == inputs.expected_reverts, || {
        format!(
            "traced producer reverted {reverted} receipts, the workload expects {}",
            inputs.expected_reverts
        )
    });

    // Recovery rebuilds the producer's head from its snapshot and WAL.
    let head = chain.head_hash();
    drop(world);
    drop(wal);
    let initial = inputs.build_world();
    let start = Instant::now();
    let recovered = Node::recover(
        DurabilityConfig::new(dir, DURABILITY),
        initial,
        engine.clone(),
    );
    samples.add_ms("node.recover_ms", start.elapsed());
    match recovered {
        Ok(node) => tally.check(node.chain().head_hash() == head, || {
            format!(
                "Node::recover rebuilt block {} instead of the traced producer's head",
                node.chain().head().header.number
            )
        }),
        Err(e) => tally.errors.push(format!("Node::recover failed: {e}")),
    }
    Ok(chain.iter().skip(1).cloned().collect())
}

/// The by-hand followers, one pass each so no two worlds share the
/// caches within a pass: the engine's fork-join validator, a serial
/// validator for the speedup, and the speculative pending chain.
fn follow(
    setting: &Setting,
    inputs: &Inputs,
    blocks: &[Block],
    tracer: &mut Tracer,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let engine = &setting.engine;
    let validating = inputs.build_world();
    let mut replayed = Vec::with_capacity(blocks.len());
    for block in blocks {
        let number = block.header.number;
        let block_span = tracer.open("follow.block", number, None);
        let validate_span = tracer.open("validator.validate", number, Some(block_span));
        let validated = engine.validate(&validating, block);
        tracer.close(validate_span);
        tracer.close(block_span);
        let report = match validated {
            Ok(report) => report,
            Err(e) => {
                tally
                    .errors
                    .push(format!("traced validation of block {number} failed: {e}"));
                break;
            }
        };
        tracer.reported("validator.replay", validate_span, report.elapsed);
        samples.add_ms(
            "validator.validate_ms",
            tracer.spans[validate_span].duration(),
        );
        samples.add_ms("validator.replay_ms", report.elapsed);
        replayed.push(report.elapsed);
    }
    let accepted: usize = blocks[..replayed.len()].iter().map(Block::len).sum();
    let root = blocks.last().map(|block| block.header.state_root);
    tally.check(Some(validating.state_root()) == root, || {
        "traced validator ended on a state root other than the producer's".to_string()
    });
    drop(validating);

    let serial = Engine::serial();
    let replica = inputs.build_world();
    for (block, parallel) in blocks.iter().zip(&replayed) {
        match serial.validate(&replica, block) {
            Ok(baseline) => samples.add(
                "validator.speedup_vs_serial",
                baseline.elapsed.as_secs_f64() / parallel.as_secs_f64(),
            ),
            Err(e) => {
                tally.errors.push(format!(
                    "serial validation of block {} failed: {e}",
                    block.header.number
                ));
                break;
            }
        }
    }
    drop(replica);

    let speculating = inputs.build_world();
    let genesis = Blockchain::with_genesis_state(speculating.state_root()).head_hash();
    let check_traces =
        engine.config().check_traces && engine.strategy() != ExecutionStrategy::Serial;
    let mut pending =
        PendingChain::new(&speculating, genesis, FollowerConfig::DEFAULT_MAX_IN_FLIGHT)
            .with_trace_checks(check_traces);
    for block in blocks {
        let number = block.header.number;
        let pending_span = tracer.open("pending.block", number, None);
        let (speculated, took) = tracer.time(
            "pending.speculate",
            number,
            Some(pending_span),
            SpanKind::Call,
            || pending.speculate(pending.tip_hash(), block),
        );
        samples.add_ms("pending.speculate_ms", took);
        let committed = speculated.and_then(|hash| {
            let (committed, took) = tracer.time(
                "pending.commit",
                number,
                Some(pending_span),
                SpanKind::Call,
                || pending.commit(&hash),
            );
            samples.add_ms("pending.commit_ms", took);
            committed
        });
        tracer.close(pending_span);
        if let Err(e) = committed {
            tally
                .errors
                .push(format!("pending chain rejected block {number}: {e}"));
            break;
        }
    }
    drop(pending);
    tally.check(Some(speculating.state_root()) == root, || {
        "traced pending chain ended on a state root other than the producer's".to_string()
    });
    let n = inputs.transactions.len();
    tally.pass(n, n.saturating_sub(accepted));
}
