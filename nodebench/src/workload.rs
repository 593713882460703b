//! The benchmark's workloads: seeded transaction streams plus the recipe
//! for the initial world every node of a run starts from.
//!
//! The program under test receives only the generated transactions; the
//! seed stays in the benchmark.

use cc_contracts::Token;
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use cc_workload::{Benchmark, Workload, WorkloadSpec};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Gas every generated transaction declares. The mempool packs blocks by
/// declared gas, so a block budget of `block_txns * TX_GAS` yields blocks
/// of exactly `block_txns` transactions.
pub const TX_GAS: u64 = 1_000_000;

/// Token accounts seeded in `transfer-paper`.
pub const TOKEN_ACCOUNTS: u64 = 4096;
/// Share of `transfer-paper` transfers that pay the one hot account.
pub const HOT_SHARE: f64 = 0.15;
/// Conflict fraction of `mixed-paper` (the paper's default).
pub const MIXED_CONFLICT: f64 = 0.15;
/// Conflict fraction of `auction-hot`.
pub const AUCTION_CONFLICT: f64 = 0.9;

const TOKEN_ADDRESS: &str = "nodebench.Token";
const HOT_ACCOUNT: &str = "nodebench.hot";
const TOKEN_BALANCE: u128 = 1_000_000_000_000;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Token transfers over a fixed 4096-account world: execution-bound.
    TransferPaper,
    /// The paper's Mixed benchmark streamed as one chain: commitment-bound.
    MixedPaper,
    /// SimpleAuction at 90% conflict: contention-bound.
    AuctionHot,
}

impl Kind {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Kind; 3] = [Kind::TransferPaper, Kind::MixedPaper, Kind::AuctionHot];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TransferPaper => "transfer-paper",
            Kind::MixedPaper => "mixed-paper",
            Kind::AuctionHot => "auction-hot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How big one round of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Blocks in the stream.
    pub blocks: usize,
    /// Transactions per block.
    pub block_txns: usize,
}

impl Size {
    /// The measured size of each workload (see README.md for the sizing).
    /// `mixed-paper`'s world grows with its stream, and 40 blocks is the
    /// shortest stream whose state root stays the largest part of a block.
    pub fn regular(kind: Kind) -> Size {
        match kind {
            Kind::TransferPaper => Size {
                blocks: 24,
                block_txns: 200,
            },
            Kind::MixedPaper => Size {
                blocks: 40,
                block_txns: 200,
            },
            Kind::AuctionHot => Size {
                blocks: 40,
                block_txns: 200,
            },
        }
    }

    /// A size small enough for the benchmark's own tests that still
    /// crosses one snapshot.
    pub fn tiny() -> Size {
        Size {
            blocks: 17,
            block_txns: 8,
        }
    }

    /// Transactions in the whole stream.
    pub fn transactions(self) -> usize {
        self.blocks * self.block_txns
    }
}

enum WorldRecipe {
    Token,
    Paper(Workload),
}

/// A generated stream plus everything needed to check what the node made
/// of it.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The seed the stream was generated from.
    pub seed: u64,
    /// Stream and block size.
    pub size: Size,
    /// The stream, in submission order, with contiguous per-sender nonces.
    pub transactions: Vec<Transaction>,
    /// Receipts the stream must revert, known from how it was generated.
    pub expected_reverts: usize,
    recipe: WorldRecipe,
}

impl Inputs {
    /// Generates the stream of `kind` for `seed`. The same seed always
    /// gives the same stream.
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Inputs {
        let n = size.transactions();
        let (mut transactions, recipe) = match kind {
            Kind::TransferPaper => (transfers(n, seed), WorldRecipe::Token),
            Kind::MixedPaper | Kind::AuctionHot => {
                let (benchmark, conflict) = if kind == Kind::MixedPaper {
                    (Benchmark::Mixed, MIXED_CONFLICT)
                } else {
                    (Benchmark::SimpleAuction, AUCTION_CONFLICT)
                };
                // One workload for the whole stream: its world holds
                // state for every transaction the stream will send.
                let workload = WorkloadSpec::new(benchmark, n, conflict)
                    .with_seed(seed)
                    .generate();
                (workload.transactions(), WorldRecipe::Paper(workload))
            }
        };
        renumber_nonces(&mut transactions);
        let expected_reverts = repeated_ballot_votes(&transactions);
        Inputs {
            kind,
            seed,
            size,
            transactions,
            expected_reverts,
            recipe,
        }
    }

    /// Builds a fresh copy of the initial world. Every call gives an
    /// identical, independent world.
    pub fn build_world(&self) -> World {
        match &self.recipe {
            WorldRecipe::Token => token_world(),
            WorldRecipe::Paper(workload) => workload.build_world(),
        }
    }

    /// The gas budget that packs `size.block_txns` transactions a block.
    pub fn gas_limit(&self) -> u64 {
        self.size.block_txns as u64 * TX_GAS
    }
}

/// The stream adapter: `cc_workload` numbers nonces by block position,
/// and the mempool parks every sender whose first nonce is not 0. Renumber
/// each sender's transactions 0, 1, 2, … in stream order.
pub fn renumber_nonces(transactions: &mut [Transaction]) {
    let mut next: HashMap<Address, u64> = HashMap::new();
    for tx in transactions {
        let nonce = next.entry(tx.sender).or_insert(0);
        tx.nonce = *nonce;
        *nonce += 1;
    }
}

/// Ballot reverts every vote after a voter's first, so a stream's
/// expected revert count is the number of repeated `(voter, vote)` pairs.
/// No other generated call reverts: transfers are far below the seeded
/// balances, withdrawals and document calls are by seeded owners, and
/// `bidPlusOne` always outbids.
fn repeated_ballot_votes(transactions: &[Transaction]) -> usize {
    let mut votes: HashMap<Address, usize> = HashMap::new();
    for tx in transactions.iter().filter(|tx| tx.call.function == "vote") {
        *votes.entry(tx.sender).or_insert(0) += 1;
    }
    votes.values().map(|count| count - 1).sum()
}

fn account(i: u64) -> Address {
    Address::from_index(1_000_000 + i)
}

fn token_world() -> World {
    let world = World::new();
    let token = Token::new(Address::from_name(TOKEN_ADDRESS), account(0));
    for i in 0..TOKEN_ACCOUNTS {
        token.seed_balance(account(i), TOKEN_BALANCE);
    }
    world.deploy(Arc::new(token));
    world
}

/// `n` token transfers. Senders rotate through the seeded accounts, so
/// the stream can be as long as needed while the world stays fixed;
/// `HOT_SHARE` of them pay one hot account, the rest a random account.
fn transfers(n: usize, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64(seed ^ 0x7472_616e_7366_6572);
    let token = Address::from_name(TOKEN_ADDRESS);
    let hot = Address::from_name(HOT_ACCOUNT);
    // Rotation starts at a seeded offset so seeds differ in senders too.
    let offset = rng.below(TOKEN_ACCOUNTS);
    (0..n as u64)
        .map(|i| {
            let sender = (offset + i) % TOKEN_ACCOUNTS;
            let to = if rng.unit() < HOT_SHARE {
                hot
            } else {
                let other = (sender + 1 + rng.below(TOKEN_ACCOUNTS - 1)) % TOKEN_ACCOUNTS;
                account(other)
            };
            let amount = 1 + u128::from(rng.below(9));
            Transaction::new(
                0,
                account(sender),
                token,
                CallData::new("transfer", vec![ArgValue::Addr(to), ArgValue::Uint(amount)]),
                TX_GAS,
            )
        })
        .collect()
}

/// A small seeded generator (SplitMix64), enough for input generation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonces_are_contiguous_per_sender() {
        for kind in Kind::ALL {
            let inputs = Inputs::generate(kind, 7, Size::tiny());
            let mut next: HashMap<Address, u64> = HashMap::new();
            for tx in &inputs.transactions {
                let expected = next.entry(tx.sender).or_insert(0);
                assert_eq!(tx.nonce, *expected, "{kind}");
                *expected += 1;
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        for kind in Kind::ALL {
            let a = Inputs::generate(kind, 3, Size::tiny());
            let b = Inputs::generate(kind, 3, Size::tiny());
            let c = Inputs::generate(kind, 4, Size::tiny());
            assert_eq!(a.transactions, b.transactions, "{kind}");
            assert_ne!(a.transactions, c.transactions, "{kind}");
            assert_eq!(
                a.build_world().state_root(),
                b.build_world().state_root(),
                "{kind}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
