//! Global synchronization between RPCServers (§4.2, Fig. 14).
//!
//! ScaleRPC schedules each server's groups independently, which stalls
//! clients that talk to several servers at once (a client can be in
//! PROCESS on one server but WARMUP on another). The paper's fix is an
//! NTP-like protocol: one server acts as the *time server*; the others
//! (followers) periodically exchange `sync`/`resp` messages carrying
//! four timestamps and then sleep a compensated delay so that everyone
//! performs the next context switch at the same instant:
//!
//! ```text
//! follower:  T_i1 ──sync──▶ T_i2   (time server)
//!            T_i4 ◀─resp── T_3     resp carries ΔT_i = T_3 − T_i2
//! time server sleeps D; follower sleeps D_i = D − (T_i4 − T_i1 − ΔT_i)/2
//! ```
//!
//! `(T_i4 − T_i1 − ΔT_i)/2` is the estimated one-way network delay, so a
//! follower that hears the server's schedule `rtt/2` late compensates by
//! sleeping that much less.

use simcore::SimDuration;

/// The synchronization protocol parameters and arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct GlobalSync {
    /// The common inter-switch period `D` all servers aim for.
    pub period: SimDuration,
}

/// One completed sync exchange, in *local clock* nanoseconds of the
/// respective reader (followers read `t1`/`t4`; the time server reads
/// `t2`/`t3`).
#[derive(Clone, Copy, Debug)]
pub struct SyncSample {
    /// Follower's clock when the `sync` request was sent.
    pub t1: i64,
    /// Time server's clock when the request arrived.
    pub t2: i64,
    /// Time server's clock when the response was sent.
    pub t3: i64,
    /// Follower's clock when the response arrived.
    pub t4: i64,
}

impl SyncSample {
    /// The server-side processing time `ΔT_i = T_3 − T_i2` that the time
    /// server piggybacks in its response.
    pub fn delta_t(&self) -> i64 {
        self.t3 - self.t2
    }

    /// Estimated one-way network delay `(T_i4 − T_i1 − ΔT_i)/2`.
    pub fn one_way_delay(&self) -> i64 {
        (self.t4 - self.t1 - self.delta_t()) / 2
    }

    /// Classic NTP clock-offset estimate
    /// `((T2 − T1) + (T3 − T4)) / 2`, usable to discipline a follower's
    /// [`simcore::SkewedClock`].
    pub fn clock_offset(&self) -> i64 {
        ((self.t2 - self.t1) + (self.t3 - self.t4)) / 2
    }
}

impl GlobalSync {
    /// The follower's compensated sleep `D_i = D − (T_i4 − T_i1 − ΔT_i)/2`,
    /// clamped at zero for pathological samples.
    pub fn follower_delay(&self, sample: &SyncSample) -> SimDuration {
        let comp = sample.one_way_delay();
        let d = self.period.as_nanos() as i64 - comp;
        SimDuration::nanos(d.max(0) as u64)
    }

    /// The time server's sleep: exactly `D`.
    pub fn server_delay(&self) -> SimDuration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimTime, SkewedClock};

    #[test]
    fn one_way_delay_excludes_processing() {
        // rtt = 8us with 2us of server processing: one-way = 3us.
        let s = SyncSample {
            t1: 0,
            t2: 3_000,
            t3: 5_000,
            t4: 8_000,
        };
        assert_eq!(s.delta_t(), 2_000);
        assert_eq!(s.one_way_delay(), 3_000);
    }

    #[test]
    fn follower_sleeps_less_by_the_network_delay() {
        let g = GlobalSync {
            period: SimDuration::micros(100),
        };
        let s = SyncSample {
            t1: 0,
            t2: 3_000,
            t3: 5_000,
            t4: 8_000,
        };
        assert_eq!(g.follower_delay(&s), SimDuration::nanos(97_000));
        assert_eq!(g.server_delay(), SimDuration::micros(100));
    }

    #[test]
    fn degenerate_sample_clamps_to_zero() {
        let g = GlobalSync {
            period: SimDuration::nanos(10),
        };
        let s = SyncSample {
            t1: 0,
            t2: 0,
            t3: 0,
            t4: 1_000_000,
        };
        assert_eq!(g.follower_delay(&s), SimDuration::ZERO);
    }

    #[test]
    fn ntp_offset_disciplines_a_skewed_clock() {
        // Follower clock is 5us ahead; symmetric 2us network.
        let follower = SkewedClock::new(5_000, 0.0);
        let server = SkewedClock::ideal();
        let send = SimTime(10_000);
        let t1 = follower.read(send);
        let t2 = server.read(send + SimDuration::nanos(2_000));
        let t3 = server.read(send + SimDuration::nanos(2_500));
        let t4 = follower.read(send + SimDuration::nanos(4_500));
        let s = SyncSample { t1, t2, t3, t4 };
        // Offset estimate should recover ≈ −5000 (follower fast).
        let off = s.clock_offset();
        assert!((off + 5_000).abs() <= 1, "offset={off}");
        let mut disciplined = follower;
        disciplined.adjust(off);
        assert_eq!(disciplined.read(SimTime(0)), 0);
    }

    #[test]
    fn aligned_switches_after_compensation() {
        // Server switches at its local D; follower hears the schedule
        // one-way-delay late but sleeps D - delay, so both next switches
        // coincide in true time.
        let g = GlobalSync {
            period: SimDuration::micros(100),
        };
        let one_way = 1_500i64;
        let t_resp_sent_true = 50_000i64; // server answers at this instant
        let s = SyncSample {
            t1: t_resp_sent_true - one_way - 300,
            t2: t_resp_sent_true - 300,
            t3: t_resp_sent_true,
            t4: t_resp_sent_true + one_way,
        };
        let server_switch = t_resp_sent_true + g.server_delay().as_nanos() as i64;
        let follower_switch = s.t4 + g.follower_delay(&s).as_nanos() as i64;
        assert!(
            (server_switch - follower_switch).abs() <= 1,
            "server {server_switch} vs follower {follower_switch}"
        );
    }
}
