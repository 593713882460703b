//! One measured round: a pipelined producer, a pipelined follower, a
//! sequential per-block producer and validator, and the checks that tie
//! them together. Everything goes through `cc_core::Node`'s public API.

use crate::workload::Inputs;
use cc_core::node::{DurabilityConfig, Node};
use cc_core::{
    CoreError, Engine, EngineConfig, ExecutionStrategy, FollowerConfig, FollowerReport,
    PipelineConfig, PipelineReport,
};
use cc_ledger::wal::DurabilityMode;
use cc_ledger::{Block, Blockchain};
use cc_mempool::MempoolConfig;
use cc_primitives::hash::Hash256;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every durable node runs the defaults a real node runs.
pub const DURABILITY: DurabilityMode = DurabilityMode::Fsync;

/// Blocks at the start of each sequential pass that run untimed, so the
/// node's lazy set-up (worker pool, pooled arenas, caches) finishes
/// before timing. They are still mined, validated and checked, and the
/// producer pass times them.
pub const WARM_UP_BLOCKS: usize = 2;

/// A deliberate corruption of the block stream handed to the followers,
/// used by the benchmark's own tests to show that its checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip the status of one receipt in the middle block.
    Receipt,
    /// Flip one byte of the middle block's state root.
    StateRoot,
}

impl Tamper {
    /// Parses a `--tamper` value.
    pub fn parse(name: &str) -> Option<Tamper> {
        match name {
            "receipt" => Some(Tamper::Receipt),
            "state-root" => Some(Tamper::StateRoot),
            _ => None,
        }
    }

    fn apply(self, blocks: &mut [Block]) {
        let Some(block) = blocks.get_mut(blocks.len() / 2) else {
            return;
        };
        match self {
            Tamper::Receipt => {
                if let Some(receipt) = block.receipts.first_mut() {
                    receipt.status = if receipt.succeeded() {
                        cc_vm::ExecutionStatus::Reverted {
                            reason: "tampered".into(),
                        }
                    } else {
                        cc_vm::ExecutionStatus::Succeeded
                    };
                }
            }
            Tamper::StateRoot => {
                block.header.state_root.0[0] ^= 1;
            }
        }
    }
}

/// What every round of a run shares.
pub struct Setting {
    /// The engine every node runs.
    pub engine: Engine,
    /// Scratch directory for this run's ledgers (removed when the run ends).
    pub dir: PathBuf,
    /// Corruption applied to the followers' stream, if any.
    pub tamper: Option<Tamper>,
}

impl Setting {
    /// The engine the benchmark measures: the paper's speculative STM on
    /// as many threads as the host has cores.
    pub fn engine_config() -> EngineConfig {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        EngineConfig::speculative().threads(threads)
    }

    /// Whether two runs of the engine over the same batches must publish
    /// byte-identical blocks. With more than one worker the schedule and
    /// the receipts of conflicting transactions may legitimately differ.
    pub fn deterministic(&self) -> bool {
        self.engine.strategy() == ExecutionStrategy::Serial || self.engine.threads() == 1
    }

    /// A fresh durable node over a fresh copy of the initial world.
    pub fn node(&self, inputs: &Inputs, dir: &Path) -> Result<Node, CoreError> {
        std::fs::remove_dir_all(dir).ok();
        Node::builder()
            .world(inputs.build_world())
            .engine(self.engine.clone())
            .mempool(mempool_config(inputs))
            .durability(DurabilityConfig::new(dir, DURABILITY))
            .build()
    }
}

/// A pool that holds the whole stream, so no submission is refused for
/// capacity.
pub fn mempool_config(inputs: &Inputs) -> MempoolConfig {
    MempoolConfig {
        capacity: 4 * inputs.transactions.len() + 1024,
        ..MempoolConfig::default()
    }
}

/// Attempted and failed transactions, plus failed checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Transactions attempted, counted once per pass.
    pub attempted: u64,
    /// Transactions that failed on a pass: refused by the mempool, not in
    /// a durable block at the end of the pass, or in a block that failed
    /// to mine or validate.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records a check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }

    /// Records a pass over `attempted` transactions of which `failed`
    /// did not make it.
    pub fn pass(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// What one round measured.
pub struct Round {
    /// Time to build the round's worlds and durable nodes.
    pub setup: Duration,
    /// Transactions made durable per second, first submit to last seal.
    pub produce_txn_per_s: f64,
    /// Transactions validated and made durable per second by the follower.
    pub follow_txn_per_s: f64,
    /// Per-block `Node::mine_pending` latencies after the warm-up.
    pub mine_ms: Vec<f64>,
    /// Per-block `Node::validate_and_append` latencies after the warm-up.
    pub validate_ms: Vec<f64>,
    /// The pipelined producer's report.
    pub pipeline: PipelineReport,
    /// The pipelined follower's report.
    pub follower: FollowerReport,
    /// Attempts, failures and failed checks.
    pub tally: Tally,
}

/// A duration in milliseconds.
pub fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Submits the whole stream to `node`; returns how many the pool refused.
fn submit_all(node: &Node, transactions: Vec<cc_ledger::Transaction>) -> usize {
    transactions
        .into_iter()
        .filter(|tx| node.submit(tx.clone()).is_err())
        .count()
}

fn reverted(chain: &Blockchain) -> usize {
    chain
        .iter()
        .flat_map(|block| &block.receipts)
        .filter(|receipt| !receipt.succeeded())
        .count()
}

/// Transactions of `inputs` not in any block of `chain`.
fn missing(inputs: &Inputs, chain: &Blockchain) -> usize {
    let landed: HashSet<Hash256> = chain
        .iter()
        .flat_map(|block| &block.transactions)
        .map(|tx| tx.hash())
        .collect();
    inputs
        .transactions
        .iter()
        .filter(|tx| !landed.contains(&tx.hash()))
        .count()
}

/// Runs one round in `setting.dir/<tag>`. The round's ledgers stay on
/// disk until the run ends, so file deletion never overlaps a measurement.
///
/// # Errors
///
/// Only when a node cannot be built (its directory cannot be created);
/// every failure of the node under test is counted in the round's tally.
pub fn round(setting: &Setting, inputs: &Inputs, tag: &str) -> Result<Round, CoreError> {
    let dir = setting.dir.join(tag);
    let n = inputs.transactions.len();
    let gas = inputs.gas_limit();
    let mut tally = Tally::default();

    let start = Instant::now();
    let mut producer = setting.node(inputs, &dir.join("producer"))?;
    let mut follower = setting.node(inputs, &dir.join("follower"))?;
    let mut sequential = setting.node(inputs, &dir.join("sequential"))?;
    let mut validator = setting.node(inputs, &dir.join("validator"))?;
    let setup = start.elapsed();

    // Producer: mempool ingest to durable blocks, pipelined.
    let stream = inputs.transactions.clone();
    let start = Instant::now();
    let refused = submit_all(&producer, stream);
    let pipeline = producer.run_pipeline(&PipelineConfig::new(gas));
    let produce_elapsed = start.elapsed();
    let pipeline = pipeline.unwrap_or_else(|e| {
        tally.errors.push(format!("producer pipeline failed: {e}"));
        PipelineReport::default()
    });
    let produced = producer.chain().total_transactions();
    let lost = missing(inputs, producer.chain());
    tally.pass(n, lost);
    tally.check(refused == 0, || {
        format!("the producer's mempool refused {refused} transactions")
    });
    tally.check(lost == 0, || {
        format!("{lost} of {n} submitted transactions are not in the producer's durable chain")
    });
    let produce_txn_per_s = produced as f64 / produce_elapsed.as_secs_f64();

    let mut blocks: Vec<Block> = producer.chain().iter().skip(1).cloned().collect();
    if let Some(tamper) = setting.tamper {
        tamper.apply(&mut blocks);
    }

    // Follower: validate the produced chain to durable blocks, pipelined.
    let start = Instant::now();
    let followed = follower.run_follower_pipeline(blocks.clone(), &FollowerConfig::new());
    let follow_elapsed = start.elapsed();
    let follower_report = followed.unwrap_or_else(|e| {
        tally.errors.push(format!("follower pipeline failed: {e}"));
        FollowerReport::default()
    });
    let follow_txn_per_s = follower_report.transactions as f64 / follow_elapsed.as_secs_f64();
    tally.pass(n, n.saturating_sub(follower.chain().total_transactions()));

    // Sequential producer: the same submissions, one block per call.
    let refused = submit_all(&sequential, inputs.transactions.clone());
    let mut mine_ms = Vec::with_capacity(blocks.len());
    while sequential.mempool().stats().ready > 0 {
        let start = Instant::now();
        let mined = sequential.mine_pending(gas);
        let elapsed = start.elapsed();
        if let Err(e) = mined {
            tally.errors.push(format!(
                "sequential mining of block {} failed (node stale: {}): {e}",
                sequential.chain().head().header.number + 1,
                sequential.is_stale()
            ));
            break;
        }
        mine_ms.push(ms(elapsed));
    }
    let lost = missing(inputs, sequential.chain());
    tally.pass(n, lost);
    tally.check(refused == 0, || {
        format!("the sequential producer's mempool refused {refused} transactions")
    });
    tally.check(lost == 0, || {
        format!("{lost} of {n} submitted transactions are not in the sequential producer's chain")
    });
    mine_ms.drain(..WARM_UP_BLOCKS.min(mine_ms.len()));

    // Sequential validator: the produced chain, one block per call.
    let mut validate_ms = Vec::with_capacity(blocks.len());
    for block in &blocks {
        let start = Instant::now();
        let validated = validator.validate_and_append(block);
        let elapsed = start.elapsed();
        if let Err(e) = validated {
            tally.errors.push(format!(
                "sequential validation of block {} failed: {e}",
                block.header.number
            ));
            break;
        }
        validate_ms.push(ms(elapsed));
    }
    tally.pass(n, n.saturating_sub(validator.chain().total_transactions()));
    validate_ms.drain(..WARM_UP_BLOCKS.min(validate_ms.len()));

    check_agreement(
        setting,
        inputs,
        &producer,
        &sequential,
        &[("follower", &follower), ("validator", &validator)],
        &mut tally,
    );

    Ok(Round {
        setup,
        produce_txn_per_s,
        follow_txn_per_s,
        mine_ms,
        validate_ms,
        pipeline,
        follower: follower_report,
        tally,
    })
}

/// The checks that tie a round's nodes together.
fn check_agreement(
    setting: &Setting,
    inputs: &Inputs,
    producer: &Node,
    sequential: &Node,
    followers: &[(&str, &Node)],
    tally: &mut Tally,
) {
    let expected = inputs.expected_reverts;
    let head = producer.chain().head_hash();
    let root = producer.world().state_root();
    let produced = reverted(producer.chain());
    tally.check(produced == expected, || {
        format!("producer reverted {produced} receipts, the workload expects {expected}")
    });

    // Both producers drain the same submissions into the same batches.
    let batches = |node: &Node| -> Vec<Hash256> {
        node.chain()
            .iter()
            .map(|block| block.header.tx_root)
            .collect()
    };
    tally.check(batches(producer) == batches(sequential), || {
        format!(
            "pipelined and sequential producers assembled different blocks ({} vs {})",
            producer.chain().len(),
            sequential.chain().len()
        )
    });
    let sequential_reverts = reverted(sequential.chain());
    tally.check(sequential_reverts == expected, || {
        format!("sequential producer reverted {sequential_reverts} receipts, expected {expected}")
    });
    if setting.deterministic() {
        tally.check(sequential.chain().head_hash() == head, || {
            "pipelined and sequential producers reached different heads".to_string()
        });
    }

    for (name, node) in followers {
        tally.check(node.chain().head_hash() == head, || {
            format!(
                "{name} stopped at block {} with a head other than the producer's (block {})",
                node.chain().head().header.number,
                producer.chain().head().header.number
            )
        });
        tally.check(node.world().state_root() == root, || {
            format!("{name} world state root differs from the producer's")
        });
        let followed = reverted(node.chain());
        tally.check(followed == produced, || {
            format!("{name} chain holds {followed} reverted receipts, the producer's {produced}")
        });
    }
}
