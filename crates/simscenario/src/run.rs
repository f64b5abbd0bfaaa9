//! Executes compiled scenarios and reports their outcomes.
//!
//! An rpc scenario runs through the benchmark's own point runner
//! (`scalerpc_bench::rpcbench::run_harness`) — the same transport
//! wiring and `Harness::replay` as every figure — with the compiled
//! [`ScenarioSpec`](rpc_core::inject::ScenarioSpec) installed; the
//! report adds the fuzzer's invariant witnesses (issued/completed/
//! in-flight totals, stuck clients, per-tenant op counts). A scenario
//! whose spec is empty therefore reproduces the corresponding benchmark
//! run bit-exactly, which the checked-in baseline scenario pins via its
//! `[expect]` table.

use crate::compile::{compile, err, Compiled, CompiledRpc, CompiledTx};
use crate::scenario::{Scenario, ScenarioError};
use rpc_core::transport::EchoHandler;
use scalerpc_bench::rawverbs::run_raw_verbs;
use scalerpc_bench::rpcbench::run_harness;
use scaletx::sim::run_scalerpc_tx;
use simcore::SimDuration;
use std::collections::BTreeMap;

/// Which kind of workload a report comes from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunKind {
    /// A raw-verb microbenchmark.
    #[default]
    Raw,
    /// A closed-loop RPC run.
    Rpc,
    /// A ScaleTX deployment.
    Tx,
}

/// Outcome of one scenario run. Raw/RPC/TX runs populate the fields
/// that apply to them and leave the rest at zero.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Workload kind.
    pub kind: RunKind,
    /// Simulator events processed over the whole run.
    pub events: u64,
    /// Operations completed inside the measurement window (committed
    /// transactions for tx runs).
    pub ops: u64,
    /// Throughput in Mops/s over the measurement window.
    pub mops: f64,
    /// RPC: requests submitted over the whole run.
    pub issued: u64,
    /// RPC: responses retired over the whole run.
    pub completed: u64,
    /// RPC: requests still outstanding after the drain.
    pub in_flight: u64,
    /// RPC: clients holding in-flight requests after the drain.
    pub stuck: usize,
    /// RPC: completed ops per tenant tag over the whole run, ascending.
    pub tenant_ops: Vec<(u32, u64)>,
    /// TX: committed transactions in the window.
    pub committed: u64,
    /// TX: aborts in the window.
    pub aborted: u64,
    /// TX: coordinator slots still busy after the drain.
    pub busy_slots: usize,
    /// TX: KV items left locked after the drain.
    pub locked_keys: usize,
}

impl ScenarioReport {
    /// Request conservation: every request issued was completed or is
    /// still in flight (trivially so for raw and tx runs). The one copy
    /// of the check — `scenario run`, every `[expect]` gate and every
    /// fuzz seed pass through it.
    fn check_conservation(&self) -> Result<(), ScenarioError> {
        if self.issued == self.completed + self.in_flight {
            return Ok(());
        }
        Err(err(format!(
            "conservation broken: issued {} != completed {} + in_flight {}",
            self.issued, self.completed, self.in_flight
        )))
    }

    /// The determinism fingerprint `(events, ops)` — two runs of the
    /// same scenario must agree on it bit-exactly.
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.events, self.ops)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self.kind {
            RunKind::Tx => format!(
                "{}: events={} committed={} aborted={} busy_slots={} locked={}",
                self.name,
                self.events,
                self.committed,
                self.aborted,
                self.busy_slots,
                self.locked_keys
            ),
            RunKind::Rpc => format!(
                "{}: events={} ops={} ({:.2} Mops/s) issued={} completed={} in_flight={} stuck={}",
                self.name,
                self.events,
                self.ops,
                self.mops,
                self.issued,
                self.completed,
                self.in_flight,
                self.stuck
            ),
            RunKind::Raw => format!(
                "{}: events={} ops={} ({:.2} Mops/s)",
                self.name, self.events, self.ops, self.mops
            ),
        }
    }
}

/// Compiles and executes `sc`, enforcing its `[expect]` table if
/// present.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    let mut report = match compile(sc)? {
        Compiled::Raw(c) => {
            let secs = c.cfg.run.as_secs_f64();
            let r = run_raw_verbs(c.cfg);
            ScenarioReport {
                kind: RunKind::Raw,
                events: r.events,
                ops: r.ops,
                mops: r.ops as f64 / secs / 1e6,
                ..Default::default()
            }
        }
        Compiled::Rpc(c) => run_rpc_scenario(&c)?,
        Compiled::Tx(c) => run_tx_scenario(&c),
    };
    report.name = sc.name.clone();
    report.check_conservation()?;
    if let Some(x) = sc.expect {
        for (what, want, got) in [
            ("events", x.events, report.events),
            ("ops", x.ops, report.ops),
        ] {
            if let Some(want) = want.filter(|&w| w != got) {
                return Err(err(format!(
                    "scenario `{}`: expected {what} {want}, got {got}",
                    sc.name
                )));
            }
        }
    }
    Ok(report)
}

fn run_rpc_scenario(c: &CompiledRpc) -> Result<ScenarioReport, ScenarioError> {
    let r = run_harness(
        c.transport,
        c.scale.clone().unwrap_or_default(),
        c.cluster.clone(),
        c.harness.clone(),
        EchoHandler::default(),
        c.make_gen(),
        c.spec.clone(),
    )
    .map_err(err)?;
    let mut by_tenant = BTreeMap::new();
    for (&tag, &done) in c.tenants.iter().zip(&r.completed_by_client) {
        *by_tenant.entry(tag).or_insert(0) += done;
    }
    Ok(ScenarioReport {
        kind: RunKind::Rpc,
        events: r.events,
        ops: r.ops,
        mops: r.mops,
        issued: r.issued,
        completed: r.completed,
        in_flight: r.in_flight,
        stuck: r.stuck,
        tenant_ops: by_tenant.into_iter().collect(),
        ..Default::default()
    })
}

fn run_tx_scenario(c: &CompiledTx) -> ScenarioReport {
    let sim = run_scalerpc_tx(c.tx.clone(), c.scale.clone(), SimDuration::ZERO);
    let tx = sim.logic(0);
    let m = &tx.metrics;
    ScenarioReport {
        kind: RunKind::Tx,
        events: sim.events(),
        ops: m.committed,
        mops: m.committed as f64 / c.tx.run.as_secs_f64() / 1e6,
        committed: m.committed,
        aborted: m.aborted,
        busy_slots: tx.busy_slots(),
        locked_keys: tx.locked_keys(sim.fabric(0)),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_rpc_scenario_runs_and_conserves_requests() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"conserve\"\nseed = 5\nwarmup_us = 200\nrun_us = 600\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nmachines = 2\nwindow = 4\n\n[[population]]\nname = \"a\"\nclients = 12\n",
        )
        .unwrap();
        let r = run_scenario(&sc).unwrap();
        assert!(r.ops > 0, "{}", r.summary());
        assert_eq!(r.issued, r.completed + r.in_flight, "{}", r.summary());
        assert_eq!(r.in_flight, 0, "{}", r.summary());
        assert_eq!(r.stuck, 0, "{}", r.summary());
        // Replay determinism.
        let r2 = run_scenario(&sc).unwrap();
        assert_eq!(r.fingerprint(), r2.fingerprint());
        assert_eq!(r.issued, r2.issued);
        // The check `run_scenario` just applied rejects a leaked request.
        let leaked = ScenarioReport {
            issued: r.issued + 1,
            ..r
        };
        let e = leaked.check_conservation().unwrap_err();
        assert!(e.msg.starts_with("conservation broken: issued"), "{e}");
    }

    #[test]
    fn depart_event_reduces_population_output() {
        let base = "[scenario]\nname = \"d\"\nseed = 5\nwarmup_us = 200\nrun_us = 1500\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nmachines = 2\ngroup_size = 8\n\n[[population]]\nname = \"a\"\nclients = 8\n\n[[population]]\nname = \"b\"\nclients = 8\ntenant = 1\n";
        let with_depart =
            format!("{base}\n[[event]]\nat_us = 400\nkind = \"depart\"\npopulation = \"b\"\n");
        let r0 = run_scenario(&Scenario::parse(base).unwrap()).unwrap();
        let r1 = run_scenario(&Scenario::parse(&with_depart).unwrap()).unwrap();
        let ops_of = |r: &ScenarioReport, t: u32| {
            r.tenant_ops
                .iter()
                .find(|(tag, _)| *tag == t)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert!(
            ops_of(&r1, 1) < ops_of(&r0, 1) / 2,
            "departed tenant kept posting: {} vs {}",
            ops_of(&r1, 1),
            ops_of(&r0, 1)
        );
        assert_eq!(r1.issued, r1.completed + r1.in_flight);
        assert_eq!(r1.stuck, 0);
    }

    #[test]
    fn tx_scenario_runs_clean() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"tx\"\nseed = 9\nwarmup_us = 300\nrun_us = 1000\n\n[workload]\nkind = \"tx\"\nprofile = \"object_store\"\ncoordinators = 12\nclient_machines = 2\nkeys_per_server = 64\nwindow = 2\n",
        )
        .unwrap();
        let r = run_scenario(&sc).unwrap();
        assert!(r.committed > 0, "{}", r.summary());
        assert_eq!(r.busy_slots, 0, "{}", r.summary());
        assert_eq!(r.locked_keys, 0, "{}", r.summary());
    }
}
