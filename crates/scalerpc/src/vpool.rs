//! Virtualized message pools.
//!
//! §3.3 of the paper: instead of one zone per *client* (static mapping),
//! ScaleRPC allocates one *physical* pool sized for a single group and
//! virtualizes it — each group's logical pool maps onto the same physical
//! zones (a [`BlockPool`](rpc_core::BlockPool) with one zone per group
//! member). The pool is *stateless*: a message becomes obsolete the
//! moment it is processed, so successive groups overwrite each other's
//! zones without any reset, and the fixed physical addresses stay
//! resident in the CPU LLC across switches.
//!
//! Two physical pools exist — the *processing* pool and the *warmup*
//! pool — and swap roles at every context switch (Fig. 6).

/// The role-swapping pair of physical pools.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolPair {
    /// Index (0/1) of the pool currently used for processing.
    processing: usize,
}

impl PoolPair {
    /// Creates the pair with pool 0 processing, pool 1 warming.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the processing pool.
    pub fn processing(&self) -> usize {
        self.processing
    }

    /// Index of the warmup pool.
    pub fn warmup(&self) -> usize {
        1 - self.processing
    }

    /// Context switch: the warmup pool becomes the processing pool.
    pub fn swap(&mut self) {
        self.processing = 1 - self.processing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_pair_swaps_roles() {
        let mut pair = PoolPair::new();
        assert_eq!(pair.processing(), 0);
        assert_eq!(pair.warmup(), 1);
        pair.swap();
        assert_eq!(pair.processing(), 1);
        assert_eq!(pair.warmup(), 0);
        pair.swap();
        assert_eq!(pair.processing(), 0);
    }
}
