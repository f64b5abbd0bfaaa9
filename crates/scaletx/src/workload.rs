//! Transaction workloads: the object store and SmallBank (§4.2.1).

use simcore::DetRng;

/// How new values are derived from the values read during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Object store: each write-set value is overwritten with a counter
    /// pattern.
    ObjStore,
    /// Read both balances (read-only).
    Balance,
    /// `checking += amount`.
    DepositChecking(i64),
    /// `savings += amount`.
    TransactSavings(i64),
    /// Move everything from account A into B's checking.
    Amalgamate,
    /// `checking -= amount` (overdraft penalty if insufficient funds).
    WriteCheck(i64),
    /// `checking(A) -= amount; checking(B) += amount`.
    SendPayment(i64),
}

/// One transaction to run: read-only keys, write keys, semantics. A
/// coordinator slot owns one and [`TxWorkload::next_tx`] refills it, so
/// drawing a transaction allocates nothing once the key list has grown
/// to the workload's largest set.
#[derive(Clone, Debug)]
pub struct TxSpec {
    /// The read set followed by the write set.
    keys: Vec<u64>,
    /// How many of `keys` are the read set.
    reads: usize,
    /// Value derivation.
    pub kind: TxKind,
}

impl TxSpec {
    /// A transaction reading `reads` and updating `writes`.
    pub fn new(reads: &[u64], writes: &[u64], kind: TxKind) -> TxSpec {
        let mut spec = TxSpec {
            keys: Vec::new(),
            reads: 0,
            kind,
        };
        spec.set(reads, writes, kind);
        spec
    }

    fn set(&mut self, reads: &[u64], writes: &[u64], kind: TxKind) {
        self.keys.clear();
        self.keys.extend_from_slice(reads);
        self.keys.extend_from_slice(writes);
        self.reads = reads.len();
        self.kind = kind;
    }

    /// Keys read but not written.
    pub fn reads(&self) -> &[u64] {
        &self.keys[..self.reads]
    }

    /// Keys read *and* written (locked during execution).
    pub fn writes(&self) -> &[u64] {
        &self.keys[self.reads..]
    }

    /// Computes the new value for write-set key `key`, given the values
    /// read during execution (`old` maps every R∪W key to its bytes,
    /// decoded as little-endian `i64` for the bank workloads).
    pub fn new_value(&self, key: u64, old: &dyn Fn(u64) -> i64) -> i64 {
        let bal = |k: u64| old(k);
        let (reads, writes) = (self.reads(), self.writes());
        match self.kind {
            TxKind::ObjStore => bal(key).wrapping_add(1),
            TxKind::Balance => unreachable!("read-only transactions never write"),
            TxKind::DepositChecking(a) => bal(key) + a,
            TxKind::TransactSavings(a) => bal(key) + a,
            TxKind::Amalgamate => {
                // writes = [ck(A), sv(A), ck(B)].
                if key == writes[0] || key == writes[1] {
                    0
                } else {
                    bal(writes[2]) + bal(writes[0]) + bal(writes[1])
                }
            }
            TxKind::WriteCheck(a) => {
                let total = bal(writes[0]) + bal(reads[0]);
                let penalty = if total < a { 1 } else { 0 };
                bal(key) - a - penalty
            }
            TxKind::SendPayment(a) => {
                if key == writes[0] {
                    bal(key) - a
                } else {
                    bal(key) + a
                }
            }
        }
    }
}

/// Workload generators.
#[derive(Clone, Debug, PartialEq)]
pub enum TxWorkload {
    /// Random-key object store with `(reads, writes)` per transaction,
    /// as in the FaSST-style OLTP benchmark of Fig. 16(a).
    ObjectStore {
        /// Read-set size.
        reads: usize,
        /// Write-set size.
        writes: usize,
        /// Keys preloaded per server.
        keys_per_server: u64,
        /// Number of shards.
        servers: u64,
    },
    /// SmallBank (Fig. 16(b)): 85 % update transactions; a 4 % hot set
    /// receives 60 % of accesses.
    SmallBank {
        /// Accounts preloaded per server.
        accounts_per_server: u64,
        /// Number of shards.
        servers: u64,
        /// Fraction of accounts that are hot (0.04 in the paper).
        hot_fraction: f64,
        /// Probability a transaction targets the hot set (0.60).
        hot_prob: f64,
    },
}

/// Checking-account key for `account`.
pub fn checking_key(account: u64) -> u64 {
    account * 2
}

/// Savings-account key for `account`.
pub fn savings_key(account: u64) -> u64 {
    account * 2 + 1
}

impl TxWorkload {
    /// The paper's SmallBank configuration (scaled-down account count is
    /// chosen by the caller).
    pub fn smallbank(accounts_per_server: u64, servers: u64) -> TxWorkload {
        TxWorkload::SmallBank {
            accounts_per_server,
            servers,
            hot_fraction: 0.04,
            hot_prob: 0.60,
        }
    }

    fn pick_account(&self, rng: &mut DetRng) -> u64 {
        match *self {
            TxWorkload::SmallBank {
                accounts_per_server,
                servers,
                hot_fraction,
                hot_prob,
            } => {
                let total = accounts_per_server * servers;
                let hot = ((total as f64 * hot_fraction) as u64).max(1);
                if rng.chance(hot_prob) {
                    rng.below(hot)
                } else {
                    hot + rng.below((total - hot).max(1))
                }
            }
            TxWorkload::ObjectStore { .. } => unreachable!("object store picks keys directly"),
        }
    }

    /// Draws the next transaction into `spec`.
    pub fn next_tx(&self, rng: &mut DetRng, spec: &mut TxSpec) {
        match *self {
            TxWorkload::ObjectStore {
                reads,
                writes,
                keys_per_server,
                servers,
            } => {
                let total = keys_per_server * servers;
                // Distinct keys, one draw per attempt.
                let keys = &mut spec.keys;
                keys.clear();
                while keys.len() < reads + writes {
                    let k = rng.below(total);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                keys.sort_unstable(); // determinism
                rng.shuffle(keys);
                spec.reads = reads;
                spec.kind = TxKind::ObjStore;
            }
            TxWorkload::SmallBank { .. } => {
                let a = self.pick_account(rng);
                let mut b = self.pick_account(rng);
                while b == a {
                    b = self.pick_account(rng);
                }
                let amount = 1 + rng.below(100) as i64;
                let (ck_a, sv_a, ck_b) = (checking_key(a), savings_key(a), checking_key(b));
                // Mix: Balance 15 %, DepositChecking 15 %, TransactSavings
                // 15 %, Amalgamate 15 %, WriteCheck 25 %, SendPayment 15 %
                // → 85 % of transactions update the store.
                match rng.below(100) {
                    0..=14 => spec.set(&[ck_a, sv_a], &[], TxKind::Balance),
                    15..=29 => spec.set(&[], &[ck_a], TxKind::DepositChecking(amount)),
                    30..=44 => spec.set(&[], &[sv_a], TxKind::TransactSavings(amount)),
                    45..=59 => spec.set(&[], &[ck_a, sv_a, ck_b], TxKind::Amalgamate),
                    60..=84 => spec.set(&[sv_a], &[ck_a], TxKind::WriteCheck(amount)),
                    _ => spec.set(&[], &[ck_a, ck_b], TxKind::SendPayment(amount)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objstore_sets_are_disjoint_and_sized() {
        let w = TxWorkload::ObjectStore {
            reads: 3,
            writes: 1,
            keys_per_server: 1000,
            servers: 3,
        };
        let mut rng = DetRng::new(5);
        let mut tx = TxSpec::new(&[], &[], TxKind::ObjStore);
        for _ in 0..100 {
            w.next_tx(&mut rng, &mut tx);
            assert_eq!(tx.reads().len(), 3);
            assert_eq!(tx.writes().len(), 1);
            let mut all = tx.reads().to_vec();
            all.extend(tx.writes());
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 4, "keys must be distinct");
            assert!(all.iter().all(|&k| k < 3000));
        }
    }

    #[test]
    fn smallbank_mix_is_85_percent_updates() {
        let w = TxWorkload::smallbank(1000, 3);
        let mut rng = DetRng::new(7);
        let n = 20_000;
        let mut tx = TxSpec::new(&[], &[], TxKind::ObjStore);
        let updates = (0..n)
            .filter(|_| {
                w.next_tx(&mut rng, &mut tx);
                !tx.writes().is_empty()
            })
            .count();
        let frac = updates as f64 / n as f64;
        assert!((0.83..0.87).contains(&frac), "update fraction {frac}");
    }

    #[test]
    fn smallbank_hot_set_receives_most_accesses() {
        let w = TxWorkload::smallbank(1000, 3);
        let mut rng = DetRng::new(11);
        let hot_accounts = (3000.0 * 0.04) as u64;
        let mut hot_hits = 0;
        let n = 10_000;
        let mut tx = TxSpec::new(&[], &[], TxKind::ObjStore);
        for _ in 0..n {
            w.next_tx(&mut rng, &mut tx);
            let key = *tx.writes().first().or(tx.reads().first()).unwrap();
            if key / 2 < hot_accounts {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((0.5..0.75).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn send_payment_conserves_money() {
        let spec = TxSpec::new(
            &[],
            &[checking_key(1), checking_key(2)],
            TxKind::SendPayment(30),
        );
        let old = |k: u64| if k == checking_key(1) { 100 } else { 50 };
        let a = spec.new_value(checking_key(1), &old);
        let b = spec.new_value(checking_key(2), &old);
        assert_eq!(a + b, 150);
        assert_eq!(a, 70);
    }

    #[test]
    fn amalgamate_moves_everything() {
        let spec = TxSpec::new(
            &[],
            &[checking_key(1), savings_key(1), checking_key(2)],
            TxKind::Amalgamate,
        );
        let old = |k: u64| match k {
            k if k == checking_key(1) => 10,
            k if k == savings_key(1) => 20,
            _ => 5,
        };
        let ck_a = spec.new_value(checking_key(1), &old);
        let sv_a = spec.new_value(savings_key(1), &old);
        let ck_b = spec.new_value(checking_key(2), &old);
        assert_eq!((ck_a, sv_a, ck_b), (0, 0, 35));
    }

    #[test]
    fn write_check_applies_overdraft_penalty() {
        let spec = TxSpec::new(
            &[savings_key(1)],
            &[checking_key(1)],
            TxKind::WriteCheck(100),
        );
        // Sufficient funds: plain deduction.
        let rich = |k: u64| if k == checking_key(1) { 80 } else { 40 };
        let v = spec.new_value(checking_key(1), &rich);
        assert_eq!(v, -20); // 80 - 100, no penalty (80+40 >= 100)
                            // Insufficient: extra 1 penalty.
        let poor = |k: u64| if k == checking_key(1) { 30 } else { 20 };
        let v = spec.new_value(checking_key(1), &poor);
        assert_eq!(v, 30 - 100 - 1);
    }
}
