//! Command-line input checks: an out-of-range number, an unknown option, an
//! option missing its value, a cluster too large to count, a fault plan that
//! names a server the cluster lacks, or a hostile trace given to
//! `gfair simulate` must end the run with exit code 1 and an error that
//! names the problem, before any simulation starts.

use std::process::Command;

/// Runs `gfair simulate --jobs 5` plus `args`; returns the exit code and
/// stderr.
fn simulate(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gfair"))
        .args(["simulate", "--jobs", "5"])
        .args(args)
        .output()
        .expect("run the gfair binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_numbers_exit_1_with_a_named_error() {
    // u64::MAX hours overflows once converted to microseconds.
    let max = u64::MAX.to_string();
    let fail_down = format!("0@{max}");
    let fail_up = format!("0@1-{max}");
    let cases: [(&[&str], &str); 9] = [
        (&["--jobs-per-hour", "0"], "--jobs-per-hour"),
        (&["--jobs-per-hour", "-3"], "--jobs-per-hour"),
        (&["--jobs-per-hour", "NaN"], "--jobs-per-hour"),
        (&["--jobs-per-hour", "inf"], "--jobs-per-hour"),
        (&["--median-mins", "-1"], "--median-mins"),
        (&["--median-mins", "NaN"], "--median-mins"),
        (&["--horizon-hours", &max], "--horizon-hours"),
        (&["--fail", &fail_down], "--fail"),
        (&["--fail", &fail_up], "--fail"),
    ];
    for (args, option) in cases {
        let (code, stderr) = simulate(args);
        assert_eq!(code, Some(1), "{args:?} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(option),
            "{args:?} must name {option} in its error; stderr: {stderr}"
        );
    }
}

#[test]
fn unknown_or_incomplete_options_exit_1() {
    // Ignoring a typo, a removed option, or a value option at the end would
    // silently run a different experiment.
    let cases: [(&[&str], &str); 3] = [
        (
            &["--horizon-hours", "1", "--bogus-flag", "3"],
            "unknown option: --bogus-flag",
        ),
        (
            &["--horizon-hours", "1", "--planning-workers", "2"],
            "unknown option: --planning-workers",
        ),
        (&["--horizon-hours", "1", "--seed"], "--seed needs a value"),
    ];
    for (args, message) in cases {
        let (code, stderr) = simulate(args);
        assert_eq!(code, Some(1), "{args:?} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(message),
            "{args:?} must say \"{message}\"; stderr: {stderr}"
        );
    }
}

#[test]
fn cluster_whose_gpu_total_overflows_exits_1() {
    // 4 × 1073741825 GPUs wraps to 4 in a u32 sum.
    let (code, stderr) = simulate(&[
        "--cluster",
        "homogeneous:4x1073741825",
        "--horizon-hours",
        "1",
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: invalid configuration") && stderr.contains("GPUs in total"),
        "the error must name the GPU total; stderr: {stderr}"
    );
}

#[test]
fn in_range_numbers_still_run() {
    let (code, stderr) = simulate(&["--jobs-per-hour", "0.5", "--horizon-hours", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn fault_plan_naming_an_unknown_server_exits_1() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let cases = [
        (
            "partition",
            r#"{"partitions": [{"server": 9, "from_secs": 60, "until_secs": 120}]}"#,
        ),
        (
            "flap",
            r#"{"flaps": [{"server": 9, "first_fail_secs": 60, "down_secs": 60, "up_secs": 60, "cycles": 1}]}"#,
        ),
    ];
    for (what, plan) in cases {
        let path = format!("{dir}/unknown_server_{what}.json");
        std::fs::write(&path, plan).expect("write the fault plan");
        let (code, stderr) = simulate(&["--cluster", "homogeneous:2x4", "--faults", &path]);
        assert_eq!(code, Some(1), "{what} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: fault plan")
                && stderr.contains(what)
                && stderr.contains("unknown server S9"),
            "{what} must name the unknown server; stderr: {stderr}"
        );
    }
}

#[test]
fn hostile_trace_exits_1_instead_of_crashing() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let job = |id: u64, gang: u32, service: &str, rates: &str| {
        format!(
            r#"[{{"id": {id}, "user": 0, "model": {{"name": "ResNet-50", "rates": {rates}, "checkpoint": 1000000, "restore": 1000000}}, "gang": {gang}, "service_secs": {service}, "arrival": 0}}]"#
        )
    };
    let trace = |id: u64, gang: u32| job(id, gang, "600.0", "[1.0, 2.0, 3.0]");
    // A zero gang used to panic mid-run in the stride scheduler; a huge
    // job id used to abort on a terabyte-sized table allocation; a negative
    // service demand and all-zero rates used to panic in duration
    // arithmetic during fast-forward and accrual.
    let cases = [
        ("zero_gang", trace(0, 0), "job J0 has gang 0"),
        (
            "sparse_id",
            trace(4_000_000_000, 1),
            "job id J4000000000 is too sparse",
        ),
        (
            "negative_service",
            job(0, 1, "-5.0", "[1.0, 2.0, 3.0]"),
            "job J0 service_secs -5 is not positive and finite",
        ),
        (
            "zero_rates",
            job(0, 1, "600.0", "[0.0, 0.0, 0.0]"),
            "job J0 model ResNet-50 has rate 0 on generation 0",
        ),
    ];
    for (what, json, message) in cases {
        let path = format!("{dir}/hostile_{what}.json");
        std::fs::write(&path, json).expect("write the trace");
        let (code, stderr) = simulate(&[
            "--cluster",
            "paper",
            "--users",
            "4",
            "--load-trace",
            &path,
            "--horizon-hours",
            "2",
        ]);
        assert_eq!(code, Some(1), "{what} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(message),
            "{what} must say \"{message}\"; stderr: {stderr}"
        );
    }
}
