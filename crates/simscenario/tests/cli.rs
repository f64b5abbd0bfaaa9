//! The `scenario` binary's verdict: `scenario run` fails a scenario
//! whose run breaks a per-run invariant, naming the scenario and what it
//! left behind, instead of printing its summary and exiting 0.

use std::path::Path;
use std::process::Command;

/// A crash that outlasts the 3 ms drain: the server is still down when
/// the run ends, so every client holds requests its retries could not
/// land.
const HANG: &str = "[scenario]\nname = \"hang\"\nseed = 5\nwarmup_us = 200\nrun_us = 600\n\n\
    [workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nmachines = 2\nwindow = 4\n\n\
    [[population]]\nname = \"a\"\nclients = 12\n\n\
    [[event]]\nat_us = 500\nkind = \"server_crash\"\ndown_us = 10000\n";

#[test]
fn scenario_run_fails_a_run_that_leaves_clients_stuck() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hang.toml");
    std::fs::write(&path, HANG).expect("scenario written");
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("scenario binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a failed run prints no summary");
    assert!(
        stderr.contains(
            "scenario `hang`: 12 clients stuck with 48 requests in flight after the drain"
        ),
        "{stderr}"
    );
}
