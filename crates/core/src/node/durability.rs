//! The durability stage: the one place a node makes appended blocks
//! durable.
//!
//! Both pipelines ([`Node::run_pipeline`] and
//! [`Node::run_follower_pipeline`]) append a block on the calling thread
//! and hand it to a [`DurabilityStage`], which seals it on a dedicated
//! `cc-durability` worker while the caller prepares the next block. The
//! sequential paths ([`Node::mine_and_append`],
//! [`Node::validate_and_append`]) seal inline through
//! [`Node::persist_block`] but share the stage's snapshot cadence and
//! failure policy. The invariants — back-pressure, in-order commit,
//! stale-and-truncate, quiesced snapshots — are stated once in the
//! crate README's "Durability stage" section.

use super::{DurabilityConfig, Node};
use crate::error::CoreError;
use cc_ledger::wal::Wal;
use cc_ledger::{Block, Blockchain, SnapshotFile};
use cc_vm::World;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Live durability machinery of a node: its config plus the open WAL
/// (shared with the execution runtimes as their durability sink).
#[derive(Debug, Clone)]
pub(super) struct DurabilityState {
    pub(super) config: DurabilityConfig,
    pub(super) wal: Arc<Wal>,
}

impl DurabilityState {
    /// Whether block `number` closes a snapshot interval.
    fn snapshot_due(&self, number: u64) -> bool {
        number.is_multiple_of(self.config.snapshot_interval)
    }

    /// Writes a snapshot of `world` at `chain`'s head and resets the WAL
    /// (its records are now redundant).
    pub(super) fn write_snapshot(
        &self,
        chain: &Blockchain,
        world: &World,
    ) -> Result<(), CoreError> {
        let head = chain.head();
        let snapshot = SnapshotFile {
            height: head.header.number,
            block_hash: head.hash(),
            state_root: head.header.state_root,
            blocks: chain.iter().cloned().collect(),
            world_bytes: world.snapshot().to_bytes(),
        };
        snapshot
            .write_to(self.config.dir())
            .map_err(CoreError::durability)?;
        self.wal.reset().map_err(CoreError::durability)
    }
}

/// What a pipeline run produced (see [`Node::run_pipeline`] and
/// [`Node::run_follower_pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Blocks appended and made durable.
    pub blocks: u64,
    /// Transactions across those blocks.
    pub transactions: usize,
    /// Periodic snapshots written (each one a pipeline barrier).
    pub snapshots: u64,
    /// Time the calling thread spent blocked handing blocks to the
    /// durability stage (back-pressure) or draining it (snapshot
    /// barriers, final drain). The sequential path would have spent at
    /// least this long sealing inline; a small value with durability on
    /// means the fsyncs hid behind mining or validation almost entirely.
    pub stalled: Duration,
}

/// A seal acknowledgement from the durability worker: block number plus
/// the seal outcome (`io::Error` rendered, it is not `Clone`).
type SealAck = (u64, Result<(), String>);

/// The running `cc-durability` worker and its two channels.
struct Worker {
    state: DurabilityState,
    blocks: mpsc::SyncSender<Block>,
    acks: mpsc::Receiver<SealAck>,
    thread: thread::JoinHandle<()>,
}

/// How far the seals have got.
struct Seals {
    /// Everything at or below this height is safe against a crash.
    durable: u64,
    /// Blocks handed to the worker and not yet acknowledged.
    in_flight: usize,
    /// The first failed seal; the worker stops there.
    failure: Option<String>,
}

impl Seals {
    fn absorb(&mut self, acks: impl Iterator<Item = SealAck>) {
        for (number, sealed) in acks {
            self.in_flight -= 1;
            match sealed {
                Ok(()) => self.durable = number,
                Err(reason) => {
                    self.failure = Some(format!("sealing block {number} failed: {reason}"));
                    break;
                }
            }
        }
    }
}

/// The durability stage of one pipeline run: a worker that seals
/// handed-off blocks in order, or nothing at all when durability is off.
pub(super) struct DurabilityStage {
    worker: Option<Worker>,
    seals: Seals,
    report: PipelineReport,
}

impl DurabilityStage {
    /// Starts the stage behind `node`, whose head must be durable. At
    /// most `depth` (at least 1) appended blocks wait for their seal
    /// before [`DurabilityStage::append`] blocks.
    pub(super) fn start(node: &Node, depth: usize) -> Self {
        let worker = node.durability.clone().map(|state| {
            let wal = state.wal.clone();
            let (blocks, work_rx) = mpsc::sync_channel::<Block>(depth.max(1) - 1);
            let (ack_tx, acks) = mpsc::channel::<SealAck>();
            let thread = thread::Builder::new()
                .name("cc-durability".into())
                .spawn(move || {
                    // In-order commit: one worker, FIFO channel. Stop at
                    // the first failure — later seals would lie about
                    // durability.
                    for block in work_rx {
                        let number = block.header.number;
                        let sealed = wal.seal_block(&block).map_err(|e| e.to_string());
                        let failed = sealed.is_err();
                        if ack_tx.send((number, sealed)).is_err() || failed {
                            return;
                        }
                    }
                })
                .expect("spawn durability worker");
            Worker {
                state,
                blocks,
                acks,
                thread,
            }
        });
        DurabilityStage {
            worker,
            seals: Seals {
                durable: node.chain.head().header.number,
                in_flight: 0,
                failure: None,
            },
            report: PipelineReport::default(),
        }
    }

    /// Collects the seals finished meanwhile; true once one has failed,
    /// and the caller must stop producing blocks.
    pub(super) fn failed(&mut self) -> bool {
        if let Some(worker) = &self.worker {
            self.seals.absorb(worker.acks.try_iter());
        }
        self.seals.failure.is_some()
    }

    /// Appends `block` to `chain` and hands it to the worker; a full
    /// hand-off is the back-pressure point. A block that closes a
    /// snapshot interval is a barrier: every seal is drained, then
    /// `world` is snapshotted and the WAL reset.
    pub(super) fn append(
        &mut self,
        chain: &mut Blockchain,
        world: &World,
        block: Block,
    ) -> Result<(), CoreError> {
        chain
            .append(block.clone())
            .map_err(|e| CoreError::rejected(e.to_string()))?;
        let number = block.header.number;
        self.report.blocks += 1;
        self.report.transactions += block.transactions.len();
        let Some(worker) = &self.worker else {
            self.seals.durable = number;
            return Ok(());
        };

        // A closed channel means the worker hit a failure whose ack is
        // (or will be) in `acks`.
        let handoff = Instant::now();
        if worker.blocks.send(block).is_ok() {
            self.seals.in_flight += 1;
        }
        self.report.stalled += handoff.elapsed();

        if worker.state.snapshot_due(number) {
            let drain = Instant::now();
            let in_flight = self.seals.in_flight;
            self.seals.absorb(worker.acks.iter().take(in_flight));
            self.report.stalled += drain.elapsed();
            if self.seals.failure.is_none() {
                worker.state.write_snapshot(chain, world)?;
                self.report.snapshots += 1;
            }
        }
        Ok(())
    }

    /// Closes the hand-off, drains the outstanding seals and joins the
    /// worker. If `outcome` or any seal failed, `node` goes stale with
    /// its chain truncated to the durable prefix.
    pub(super) fn finish(
        mut self,
        node: &mut Node,
        outcome: Result<(), CoreError>,
    ) -> Result<PipelineReport, CoreError> {
        if let Some(worker) = self.worker {
            drop(worker.blocks);
            let drain = Instant::now();
            self.seals.absorb(worker.acks.iter());
            self.report.stalled += drain.elapsed();
            worker.thread.join().expect("durability worker panicked");
        }
        let durable = self.seals.durable;
        match (outcome, self.seals.failure) {
            (Err(e), _) => Err(node.stale_to(durable, e)),
            (Ok(()), Some(reason)) => Err(node.stale_to(durable, CoreError::durability(reason))),
            (Ok(()), None) => {
                debug_assert_eq!(durable, node.chain.head().header.number);
                Ok(self.report)
            }
        }
    }
}

impl Node {
    /// The failure policy of every durability path: the node goes stale
    /// and its in-memory chain is truncated to the `durable` prefix, so
    /// it never advertises blocks a crash would forget. Returns `err`
    /// for the caller to propagate; [`Node::recover`] is the exit.
    fn stale_to(&mut self, durable: u64, err: CoreError) -> CoreError {
        self.stale = true;
        self.chain.truncate_to(durable);
        err
    }

    /// Seals the just-appended `block` into the WAL inline (the
    /// group-commit point) and takes a snapshot when the interval
    /// closes — the sequential counterpart of [`DurabilityStage`], with
    /// the same cadence and failure policy. No-op without durability.
    pub(super) fn persist_block(&mut self, block: &Block) -> Result<(), CoreError> {
        let Some(state) = &self.durability else {
            return Ok(());
        };
        let number = block.header.number;
        if let Err(e) = state.wal.seal_block(block) {
            return Err(self.stale_to(number - 1, CoreError::durability(e)));
        }
        if state.snapshot_due(number) {
            if let Err(e) = state.write_snapshot(&self.chain, &self.world) {
                return Err(self.stale_to(number, e));
            }
        }
        Ok(())
    }
}
