//! Executes compiled scenarios and reports their outcomes.
//!
//! Each workload runs through the benchmark's own runner — raw verbs
//! through `run_raw_verbs`, an rpc scenario through
//! `scalerpc_bench::rpcbench::run_harness` (the same transport wiring and
//! `Harness::replay` as every figure, with the compiled
//! [`ScenarioSpec`](rpc_core::inject::ScenarioSpec) installed), a tx
//! scenario through `rpcbench::run_tx` — and the report is that runner's
//! result, plus per-tenant op counts for rpc runs. A scenario whose spec
//! is empty therefore reproduces the corresponding benchmark run
//! bit-exactly, which the checked-in baseline scenario pins via its
//! `[expect]` table. [`run_scenario`] checks every per-run invariant, so
//! no caller can read a hung run as a pass.

use crate::compile::{compile, err, Compiled, CompiledRpc};
use crate::scenario::{Scenario, ScenarioError};
use rpc_core::transport::EchoHandler;
use scalerpc_bench::rawverbs::{run_raw_verbs, RawVerbResult};
use scalerpc_bench::rpcbench::{run_harness, run_tx, RpcRunResult, TransportKind, TxRunResult};
use std::collections::BTreeMap;

/// What a scenario's runner returned.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A raw-verb microbenchmark.
    Raw(RawVerbResult),
    /// A closed-loop RPC run.
    Rpc {
        /// The harness point's result.
        run: RpcRunResult,
        /// Completed ops per tenant tag over the whole run, ascending.
        tenant_ops: Vec<(u32, u64)>,
    },
    /// A ScaleTX deployment.
    Tx(TxRunResult),
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// The runner's result.
    pub outcome: Outcome,
}

impl ScenarioReport {
    /// The per-run invariants, checked once here for `scenario run`,
    /// every `[expect]` gate and every fuzz seed alike: request
    /// conservation (every request issued was completed or is still in
    /// flight) and no request in flight after the drain for rpc runs;
    /// no busy coordinator slot and no locked key for tx runs. A raw run
    /// has no client to strand and no lock to hold.
    fn check(&self) -> Result<(), ScenarioError> {
        let broken = match &self.outcome {
            Outcome::Rpc { run: r, .. } if r.issued != r.completed + r.in_flight => format!(
                "conservation broken: issued {} != completed {} + in_flight {}",
                r.issued, r.completed, r.in_flight
            ),
            Outcome::Rpc { run: r, .. } if r.in_flight != 0 || r.stuck != 0 => format!(
                "{} clients stuck with {} requests in flight after the drain",
                r.stuck, r.in_flight
            ),
            Outcome::Tx(r) if r.busy_slots != 0 || r.locked_keys != 0 => format!(
                "{} coordinator slots busy and {} keys locked after the drain",
                r.busy_slots, r.locked_keys
            ),
            _ => return Ok(()),
        };
        Err(err(format!("scenario `{}`: {broken}", self.name)))
    }

    /// The determinism fingerprint `(events, ops)` — two runs of the
    /// same scenario must agree on it bit-exactly. A tx run's ops are
    /// its committed transactions.
    pub fn fingerprint(&self) -> (u64, u64) {
        match &self.outcome {
            Outcome::Raw(r) => (r.events, r.ops),
            Outcome::Rpc { run, .. } => (run.events, run.ops),
            Outcome::Tx(r) => (r.events, r.metrics.committed),
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let name = &self.name;
        match &self.outcome {
            Outcome::Raw(r) => format!(
                "{name}: events={} ops={} ({:.2} Mops/s)",
                r.events, r.ops, r.mops
            ),
            Outcome::Rpc { run: r, .. } => format!(
                "{name}: events={} ops={} ({:.2} Mops/s) issued={} completed={} in_flight={} stuck={} \
                 p50={:.2}us p99={:.2}us retries={}",
                r.events,
                r.ops,
                r.mops,
                r.issued,
                r.completed,
                r.in_flight,
                r.stuck,
                r.median_us,
                r.p99_us,
                r.retries
            ),
            Outcome::Tx(r) => format!(
                "{name}: events={} committed={} aborted={} busy_slots={} locked={}",
                r.events, r.metrics.committed, r.metrics.aborted, r.busy_slots, r.locked_keys
            ),
        }
    }
}

/// Compiles and executes `sc`, checking the per-run invariants and then
/// its `[expect]` table if present.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    let outcome = match compile(sc)? {
        Compiled::Raw(cfg) => Outcome::Raw(run_raw_verbs(cfg)),
        Compiled::Rpc(c) => run_rpc_scenario(&c)?,
        Compiled::Tx(cfg) => Outcome::Tx(run_tx(TransportKind::ScaleRpc, cfg)),
    };
    let report = ScenarioReport {
        name: sc.name.clone(),
        outcome,
    };
    report.check()?;
    if let Some(x) = sc.expect {
        let (events, ops) = report.fingerprint();
        for (what, want, got) in [("events", x.events, events), ("ops", x.ops, ops)] {
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

fn run_rpc_scenario(c: &CompiledRpc) -> Result<Outcome, ScenarioError> {
    let run = run_harness(
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
    for (&tag, &done) in c.tenants.iter().zip(&run.completed_by_client) {
        *by_tenant.entry(tag).or_insert(0) += done;
    }
    Ok(Outcome::Rpc {
        run,
        tenant_ops: by_tenant.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpc(report: &ScenarioReport) -> &RpcRunResult {
        match &report.outcome {
            Outcome::Rpc { run, .. } => run,
            _ => panic!("rpc outcome expected: {}", report.summary()),
        }
    }

    #[test]
    fn empty_spec_rpc_scenario_runs_and_conserves_requests() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"conserve\"\nseed = 5\nwarmup_us = 200\nrun_us = 600\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nmachines = 2\nwindow = 4\n\n[[population]]\nname = \"a\"\nclients = 12\n",
        )
        .unwrap();
        let r = run_scenario(&sc).unwrap();
        assert!(r.fingerprint().1 > 0, "{}", r.summary());
        // Replay determinism.
        let r2 = run_scenario(&sc).unwrap();
        assert_eq!(r.summary(), r2.summary());
        // The check `run_scenario` just applied rejects a leaked request
        // and a stranded one.
        let with = |issued, in_flight, stuck| {
            let mut run = rpc(&r).clone();
            (run.issued, run.in_flight, run.stuck) = (issued, in_flight, stuck);
            let tenant_ops = Vec::new();
            let outcome = Outcome::Rpc { run, tenant_ops };
            let name = r.name.clone();
            ScenarioReport { name, outcome }.check().unwrap_err().msg
        };
        let issued = rpc(&r).issued;
        let e = with(issued + 1, 0, 0);
        assert!(
            e.starts_with("scenario `conserve`: conservation broken: issued"),
            "{e}"
        );
        let e = with(issued + 3, 3, 2);
        assert_eq!(
            e,
            "scenario `conserve`: 2 clients stuck with 3 requests in flight after the drain"
        );
    }

    #[test]
    fn depart_event_reduces_population_output() {
        let base = "[scenario]\nname = \"d\"\nseed = 5\nwarmup_us = 200\nrun_us = 1500\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nmachines = 2\ngroup_size = 8\n\n[[population]]\nname = \"a\"\nclients = 8\n\n[[population]]\nname = \"b\"\nclients = 8\ntenant = 1\n";
        let with_depart =
            format!("{base}\n[[event]]\nat_us = 400\nkind = \"depart\"\npopulation = \"b\"\n");
        let r0 = run_scenario(&Scenario::parse(base).unwrap()).unwrap();
        let r1 = run_scenario(&Scenario::parse(&with_depart).unwrap()).unwrap();
        let ops_of = |r: &ScenarioReport, t: u32| {
            let Outcome::Rpc { tenant_ops, .. } = &r.outcome else {
                panic!("rpc outcome expected")
            };
            tenant_ops
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
    }

    #[test]
    fn tx_scenario_runs_clean() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"tx\"\nseed = 9\nwarmup_us = 300\nrun_us = 1000\n\n[workload]\nkind = \"tx\"\nprofile = \"object_store\"\ncoordinators = 12\nclient_machines = 2\nkeys_per_server = 64\nwindow = 2\n",
        )
        .unwrap();
        let r = run_scenario(&sc).unwrap();
        let Outcome::Tx(tx) = &r.outcome else {
            panic!("tx outcome expected")
        };
        assert!(tx.metrics.committed > 0, "{}", r.summary());
        let stuck = ScenarioReport {
            outcome: Outcome::Tx(TxRunResult {
                busy_slots: 1,
                ..tx.clone()
            }),
            ..r.clone()
        };
        assert_eq!(
            stuck.check().unwrap_err().msg,
            "scenario `tx`: 1 coordinator slots busy and 0 keys locked after the drain"
        );
    }
}
