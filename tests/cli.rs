//! Command-line input checks: an out-of-range number, an unknown option, an
//! option missing its value, a cluster too large to count, a fault plan that
//! names a server the cluster lacks, has an unknown key, schedules an event
//! too late or past the microsecond clock, asks for too many flap cycles or
//! holds two windows of one kind on one server that overlap or touch, or a
//! hostile trace given to `gfair simulate` must end the run with exit code 1
//! and an error that names the problem, before any simulation starts.

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
fn events_after_the_latest_event_time_exit_1() {
    // The engine flushes one report window per `report_window` up to each
    // event it reaches: this partition used to exhaust memory even with a
    // two-hour horizon.
    let dir = env!("CARGO_TARGET_TMPDIR");
    let plans = [
        (
            "partition 0 (server S2) ends at 3000000003600 s",
            r#"{"partitions": [{"server": 2, "from_secs": 3000000000000, "until_secs": 3000000003600}]}"#,
        ),
        (
            "flap 0 (server S5) last recovers at 3000000000060 s",
            r#"{"flaps": [{"server": 5, "first_fail_secs": 3000000000000, "down_secs": 60, "up_secs": 60, "cycles": 1}]}"#,
        ),
    ];
    for (i, (message, plan)) in plans.into_iter().enumerate() {
        let path = format!("{dir}/late_event_{i}.json");
        std::fs::write(&path, plan).expect("write the fault plan");
        let (code, stderr) = simulate(&[
            "--cluster",
            "paper",
            "--users",
            "4",
            "--horizon-hours",
            "2",
            "--faults",
            &path,
        ]);
        assert_eq!(code, Some(1), "{plan} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: fault plan")
                && stderr.contains(message)
                && stderr.contains("after the latest event time"),
            "{plan} must name the entry; stderr: {stderr}"
        );
    }
    let (code, stderr) = simulate(&["--fail", "1@2-200000", "--horizon-hours", "2"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: --fail 1@2-200000: event at 720000000 s, after"),
        "stderr: {stderr}"
    );
}

#[test]
fn plan_seconds_that_overflow_the_clock_exit_1() {
    // 18446744073710 s is past u64::MAX microseconds: the plan's times used
    // to wrap to a partition 0.45 s into the run, and the run exited 0.
    let path = format!("{}/wrapping_partition.json", env!("CARGO_TARGET_TMPDIR"));
    let plan = r#"{"partitions": [{"server": 2, "from_secs": 18446744073710, "until_secs": 18446744077310}]}"#;
    std::fs::write(&path, plan).expect("write the fault plan");
    let (code, stderr) = simulate(&[
        "--cluster",
        "paper",
        "--users",
        "4",
        "--jobs",
        "20",
        "--horizon-hours",
        "2",
        "--faults",
        &path,
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: parsing fault plan")
            && stderr.contains("field from_secs: 18446744073710 s does not fit"),
        "stderr: {stderr}"
    );
}

#[test]
fn flap_cycles_over_the_cap_exit_1() {
    // Every flap cycle queues two events when the run starts, whatever the
    // horizon: this plan used to peak near 100 MB for a one-hour run.
    let path = format!("{}/million_flap_cycles.json", env!("CARGO_TARGET_TMPDIR"));
    let plan = r#"{"flaps": [{"server": 5, "first_fail_secs": 60, "down_secs": 1, "up_secs": 1, "cycles": 1000000}]}"#;
    std::fs::write(&path, plan).expect("write the fault plan");
    let (code, stderr) = simulate(&[
        "--cluster",
        "paper",
        "--users",
        "4",
        "--jobs",
        "20",
        "--horizon-hours",
        "1",
        "--faults",
        &path,
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: parsing fault plan")
            && stderr.contains("flap 0 (server S5) brings the plan to 1000000 flap cycles"),
        "stderr: {stderr}"
    );
}

#[test]
fn same_kind_fault_windows_that_overlap_or_touch_exit_1() {
    // The engine keeps a server's down and partitioned states as flags, so
    // the first recovery or heal used to end every overlapping window of
    // its kind, and these runs exited 0.
    let dir = env!("CARGO_TARGET_TMPDIR");
    let part = |a: u64, b: u64| format!(r#"{{"server": 2, "from_secs": {a}, "until_secs": {b}}}"#);
    let flap = |at: u64, down: u64| {
        format!(
            r#"{{"server": 1, "first_fail_secs": {at}, "down_secs": {down}, "up_secs": 60, "cycles": 1}}"#
        )
    };
    let cases = [
        (
            "nested_partitions",
            format!(r#"{{"partitions": [{}, {}]}}"#, part(100, 3600), part(200, 300)),
            None,
            "partition 0 of S2 (100-3600 s) and partition 1 of S2 (200-300 s) overlap or touch",
        ),
        (
            "touching_partitions",
            format!(r#"{{"partitions": [{}, {}]}}"#, part(100, 300), part(300, 3600)),
            None,
            "partition 0 of S2 (100-300 s) and partition 1 of S2 (300-3600 s) overlap or touch",
        ),
        (
            "nested_flaps",
            format!(r#"{{"flaps": [{}, {}]}}"#, flap(100, 5000), flap(200, 100)),
            None,
            "flap 0 outage 0 of S1 (100-5100 s) and flap 1 outage 0 of S1 (200-300 s) overlap or touch",
        ),
        (
            "fail_and_flap",
            format!(r#"{{"flaps": [{}]}}"#, flap(7200, 600)),
            Some("1@1"),
            "outage of S1 from 3600 s on and flap 0 outage 0 of S1 (7200-7800 s) overlap or touch",
        ),
    ];
    for (name, plan, fail, message) in cases {
        let path = format!("{dir}/overlapping_{name}.json");
        std::fs::write(&path, plan).expect("write the fault plan");
        let mut args = vec!["--cluster", "paper", "--users", "4", "--faults", &path];
        args.extend(fail.map(|f| ["--fail", f]).into_iter().flatten());
        let (code, stderr) = simulate(&args);
        assert_eq!(code, Some(1), "{name} must exit 1; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(message),
            "{name} must name both windows; stderr: {stderr}"
        );
    }
    // The outage of a `--fail` that ends before the flap starts is fine,
    // and so is a partition during an outage.
    let path = format!("{dir}/overlapping_ok.json");
    let plan = format!(
        r#"{{"partitions": [{}], "flaps": [{}]}}"#,
        r#"{"server": 1, "from_secs": 7000, "until_secs": 8000}"#,
        flap(7200, 600)
    );
    std::fs::write(&path, plan).expect("write the fault plan");
    let args = ["--cluster", "paper", "--users", "4", "--horizon-hours", "3"];
    let (code, stderr) = simulate(&[&args[..], &["--faults", &path, "--fail", "1@0-1"]].concat());
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn fault_plan_with_an_unknown_key_exits_1() {
    // A misspelt rate used to be ignored: the run went ahead without faults.
    let path = format!("{}/unknown_key_plan.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, r#"{"seed": 1, "checkpoint_fail_rte": 0.5}"#)
        .expect("write the fault plan");
    let (code, stderr) = simulate(&[
        "--cluster",
        "paper",
        "--users",
        "2",
        "--horizon-hours",
        "10",
        "--faults",
        &path,
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("parsing fault plan")
            && stderr.contains("unknown key \"checkpoint_fail_rte\"")
            && stderr.contains("checkpoint_fail_rate"),
        "the error must name the key and the known ones; stderr: {stderr}"
    );
}

#[test]
fn hostile_trace_exits_1_instead_of_crashing() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let job_at = |id: u64, gang: u32, service: &str, rates: &str, arrival: u64| {
        format!(
            r#"[{{"id": {id}, "user": 0, "model": {{"name": "ResNet-50", "rates": {rates}, "checkpoint": 1000000, "restore": 1000000}}, "gang": {gang}, "service_secs": {service}, "arrival": {arrival}}}]"#
        )
    };
    let job = |id: u64, gang: u32, service: &str, rates: &str| job_at(id, gang, service, rates, 0);
    let trace = |id: u64, gang: u32| job(id, gang, "600.0", "[1.0, 2.0, 3.0]");
    let arriving = |arrival: u64| job_at(0, 1, "600.0", "[1.0, 2.0, 3.0]", arrival);
    // A zero gang used to panic mid-run in the stride scheduler; a huge
    // job id used to abort on a terabyte-sized table allocation; a negative
    // service demand and all-zero rates used to panic in duration
    // arithmetic during fast-forward and accrual. An arrival 2^55 us
    // (about 1142 years) out used to fill the report timeseries with empty
    // windows until allocation failed, and one at u64::MAX never ended.
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
        (
            "far_arrival",
            arriving(1 << 55),
            "job J0 arrives at 36028797018963968 us, after the last arrival",
        ),
        (
            "max_arrival",
            arriving(u64::MAX),
            "job J0 arrives at 18446744073709551615 us, after the last arrival",
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
