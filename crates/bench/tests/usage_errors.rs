//! Usage errors in the bench binaries are reported, not panicked: each
//! bad invocation exits 2 with an `error: …` line on stderr, the same as
//! `class-cli`.

#[test]
fn bad_flags_exit_two_with_an_error_line() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            env!("CARGO_BIN_EXE_perf_trajectory"),
            &["--preset", "nope"],
            "error: --preset must be quick or full, got nope",
        ),
        (
            env!("CARGO_BIN_EXE_serve_throughput"),
            &["--shards", "abc"],
            "error: numeric --shards",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--frobnicate"],
            "error: unknown argument --frobnicate",
        ),
    ];
    for (bin, args, want) in cases {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(want), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}
